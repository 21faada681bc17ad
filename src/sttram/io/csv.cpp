#include "sttram/io/csv.hpp"

#include <cstdio>
#include <ostream>

namespace sttram {

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string quoted = "\"";
  for (const char ch : field) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  char buf[64];
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    std::snprintf(buf, sizeof(buf), "%.17g", fields[i]);
    out_ << buf;
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace sttram
