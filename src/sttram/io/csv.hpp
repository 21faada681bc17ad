// Minimal CSV emission (RFC-4180-style quoting).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sttram {

/// Streams rows of a CSV file.  Fields containing commas, quotes or
/// newlines are quoted and escaped.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  /// Writes one row of string fields.
  void write_row(const std::vector<std::string>& fields);

  /// Writes one row of numeric fields with full double precision.
  void write_row(const std::vector<double>& fields);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  static std::string escape(const std::string& field);
  std::ostream& out_;
  std::size_t rows_ = 0;
};

}  // namespace sttram
