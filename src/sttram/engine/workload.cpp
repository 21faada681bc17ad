#include "sttram/engine/workload.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "sttram/common/error.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::engine {
namespace {

double sample_exponential(Xoshiro256& rng, double mean) {
  return -mean * std::log1p(-rng.next_double());
}

/// Bytes the trace loader reads per chunk, and the trace writer's
/// output buffer.
constexpr std::size_t kChunkBytes = 64 * 1024;

bool parse_op(std::string_view field, Op& op) {
  if (field == "read" || field == "r" || field == "R") {
    op = Op::kRead;
    return true;
  }
  if (field == "write" || field == "w" || field == "W") {
    op = Op::kWrite;
    return true;
  }
  return false;
}

/// Strict decimal number: the whole field must parse and be finite, so
/// "inf", "nan", hex floats and trailing garbage are all rejected.
bool parse_double(std::string_view field, double& value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  return ec == std::errc() && ptr == end && std::isfinite(value);
}

/// A bank index: plain digits, or any strict number that is a whole
/// value in [0, UINT32_MAX] ("2.0" and "1e3" are banks 2 and 1000).
bool parse_bank(std::string_view field, std::uint32_t& bank) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, bank);
  if (ec == std::errc() && ptr == end) return true;
  double value = 0.0;
  if (!parse_double(field, value) || value < 0.0 ||
      value > static_cast<double>(UINT32_MAX) ||
      value != std::floor(value)) {
    return false;
  }
  bank = static_cast<std::uint32_t>(value);
  return true;
}

/// True when `field` is a header label: it starts with a letter and does
/// not begin with a number, so "arrival_s" is one but "inf", "0x1p-30"
/// and "+1e-9" are malformed numbers.
bool is_label(std::string_view field) {
  double ignored = 0.0;
  return !field.empty() &&
         std::isalpha(static_cast<unsigned char>(field[0])) != 0 &&
         std::from_chars(field.data(), field.data() + field.size(), ignored)
                 .ec == std::errc::invalid_argument;
}

/// Throws the loader's error for a field; built only when thrown.
[[noreturn]] void fail(std::size_t row, std::size_t column,
                       const std::string& what) {
  throw InvalidArgument("load_trace_csv: row " + std::to_string(row) +
                        ", column " + std::to_string(column) + ": " + what);
}

/// The first three fields of one CSV record and its field count
/// (counted up to 3; later columns are ignored).
struct Record {
  std::string_view field[3];
  std::size_t count = 0;
};

/// One pass over a CSV stream in fixed-size chunks.  A record without a
/// quote is one line, split in place: its fields view the chunk buffer.
/// A record with a quote is decoded into a side buffer: a quote toggles
/// quoting anywhere in a field, a doubled quote inside quotes is one
/// literal quote, and the record continues across newlines while a
/// quote is open.  A '\r' before each line end is dropped and blank
/// lines are skipped.  Rows count records, from 1.
class TraceScanner {
 public:
  explicit TraceScanner(std::istream& in) : in_(in), buf_(kChunkBytes) {}

  /// Reads the next record into `rec`; false at end of input.  Its
  /// views stay valid until the next call.
  bool next(Record& rec) {
    for (;;) {
      std::size_t len = 0;
      std::size_t past = 0;
      if (!find_line(0, len, past)) return false;
      const std::string_view line = strip_cr(begin_, len);
      if (line.empty()) {
        begin_ += past;
        continue;
      }
      ++row_;
      if (std::memchr(line.data(), '"', line.size()) == nullptr) {
        split_plain(line, rec);
        begin_ += past;
      } else {
        read_quoted(len, past, rec);
      }
      return true;
    }
  }

  /// 1-based row of the record last returned.
  [[nodiscard]] std::size_t row() const { return row_; }

 private:
  std::string_view strip_cr(std::size_t at, std::size_t len) const {
    if (len > 0 && buf_[at + len - 1] == '\r') --len;
    return {buf_.data() + at, len};
  }

  /// Finds the line that starts `from` bytes past begin_, reading more
  /// input as needed: `len` is its length without the '\n' and `past`
  /// the offset just beyond it.  False when no byte is left.
  bool find_line(std::size_t from, std::size_t& len, std::size_t& past) {
    std::size_t scanned = from;
    for (;;) {
      const char* base = buf_.data() + begin_;
      const std::size_t avail = end_ - begin_;
      if (const void* nl =
              std::memchr(base + scanned, '\n', avail - scanned)) {
        len = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                       base) - from;
        past = from + len + 1;
        return true;
      }
      scanned = avail;
      if (!refill()) {
        if (avail == from) return false;
        len = avail - from;  // the last line has no '\n'
        past = avail;
        return true;
      }
    }
  }

  /// Moves the unread bytes to the front of the buffer and appends up to
  /// one chunk from the stream; false when nothing more was read.
  bool refill() {
    if (eof_) return false;
    const std::size_t keep = end_ - begin_;
    if (begin_ > 0) std::memmove(buf_.data(), buf_.data() + begin_, keep);
    begin_ = 0;
    end_ = keep;
    // A record longer than a chunk grows the buffer.
    if (buf_.size() < keep + kChunkBytes) buf_.resize(keep + kChunkBytes);
    in_.read(buf_.data() + keep, static_cast<std::streamsize>(kChunkBytes));
    if (in_.bad()) {
      throw InvalidArgument("load_trace_csv: read error in row " +
                            std::to_string(row_ + 1));
    }
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    eof_ = got < kChunkBytes;
    return got > 0;
  }

  static void split_plain(std::string_view line, Record& rec) {
    rec.count = 0;
    const char* at = line.data();
    const char* const end = at + line.size();
    while (rec.count < 3) {
      const auto* comma = static_cast<const char*>(
          std::memchr(at, ',', static_cast<std::size_t>(end - at)));
      const char* stop = comma != nullptr ? comma : end;
      rec.field[rec.count++] =
          std::string_view(at, static_cast<std::size_t>(stop - at));
      if (comma == nullptr) break;
      at = comma + 1;
    }
  }

  /// Gathers the quoted record whose first line is `len` bytes at
  /// begin_, joining lines while a quote is open, then decodes it.
  void read_quoted(std::size_t len, std::size_t past, Record& rec) {
    joined_.clear();
    bool open = false;
    for (std::size_t from = 0;;) {
      const std::string_view line = strip_cr(begin_ + from, len);
      if (from > 0) joined_ += '\n';
      joined_.append(line);
      if (std::count(line.begin(), line.end(), '"') % 2 != 0) open = !open;
      if (!open) break;
      from = past;
      if (!find_line(from, len, past)) {
        fail(row_, decode(rec), "unterminated quoted field at end of input");
      }
    }
    begin_ += past;
    decode(rec);
  }

  /// Decodes joined_ into decoded_, points `rec` at its fields and
  /// returns the full field count.
  std::size_t decode(Record& rec) {
    decoded_.clear();
    // Decoding never lengthens the text, so the views below stay valid.
    decoded_.reserve(joined_.size());
    std::size_t count = 0;
    std::size_t start = 0;
    const auto close_field = [&] {
      if (count < 3) {
        rec.field[count] = std::string_view(decoded_).substr(start);
      }
      ++count;
      start = decoded_.size();
    };
    bool quoted = false;
    for (std::size_t i = 0; i < joined_.size(); ++i) {
      const char ch = joined_[i];
      if (quoted) {
        if (ch != '"') {
          decoded_ += ch;
        } else if (i + 1 < joined_.size() && joined_[i + 1] == '"') {
          decoded_ += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else if (ch == '"') {
        quoted = true;
      } else if (ch == ',') {
        close_field();
      } else {
        decoded_ += ch;
      }
    }
    close_field();
    rec.count = std::min<std::size_t>(count, 3);
    return count;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< first unread byte of buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
  bool eof_ = false;
  std::size_t row_ = 0;
  std::string joined_;   ///< a quoted record's lines, '\r' dropped
  std::string decoded_;  ///< its fields with quoting removed
};

}  // namespace

std::vector<Request> generate_poisson_workload(
    const PoissonWorkloadConfig& config) {
  require(config.mean_interarrival.value() > 0.0,
          "generate_poisson_workload: mean_interarrival must be > 0");
  require(config.banks > 0, "generate_poisson_workload: banks must be > 0");
  require(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
          "generate_poisson_workload: read_fraction must be in [0, 1]");
  Xoshiro256 rng(config.seed);
  std::vector<Request> out;
  out.reserve(config.requests);
  double clock = 0.0;
  for (std::size_t k = 0; k < config.requests; ++k) {
    clock += sample_exponential(rng, config.mean_interarrival.value());
    Request r;
    r.id = k;
    r.arrival = Second(clock);
    r.op = rng.next_double() < config.read_fraction ? Op::kRead : Op::kWrite;
    r.bank = static_cast<std::uint32_t>(rng.next_u64() % config.banks);
    out.push_back(r);
  }
  return out;
}

std::vector<Request> load_trace_csv(std::istream& in) {
  TraceScanner scanner(in);
  std::vector<Request> out;
  Record rec;
  while (scanner.next(rec)) {
    const std::size_t row = scanner.row();
    if (rec.count < 3) {
      fail(row, rec.count + 1,
           "expected arrival_s,op,bank — got " + std::to_string(rec.count) +
               " field(s)");
    }
    double arrival = 0.0;
    if (!parse_double(rec.field[0], arrival)) {
      // A first row whose first column is a label is the header.
      if (row == 1 && is_label(rec.field[0])) continue;
      fail(row, 1, "bad arrival '" + std::string(rec.field[0]) + "'");
    }
    if (arrival < 0.0) fail(row, 1, "arrival must be >= 0");
    Request r;
    r.arrival = Second(arrival);
    if (!parse_op(rec.field[1], r.op)) {
      fail(row, 2,
           "bad op '" + std::string(rec.field[1]) + "' (want read/write)");
    }
    if (!parse_bank(rec.field[2], r.bank)) {
      fail(row, 3, "bad bank '" + std::string(rec.field[2]) + "'");
    }
    r.id = out.size();
    out.push_back(r);
  }
  if (!std::is_sorted(out.begin(), out.end(), arrives_before)) {
    std::stable_sort(out.begin(), out.end(), arrives_before);
    for (std::size_t k = 0; k < out.size(); ++k) out[k].id = k;
  }
  return out;
}

void write_trace_csv(std::ostream& out,
                     const std::vector<Request>& requests) {
  // Rows are formatted into one buffer; "%.17g" and to_chars(general,
  // 17) print the same bytes.
  constexpr std::size_t kMaxRow = 64;  // 24-char double, op, 10 digits
  std::vector<char> buf(kChunkBytes);
  char* const begin = buf.data();
  char* const end = begin + buf.size();
  constexpr std::string_view kHeader = "arrival_s,op,bank\n";
  char* at = std::copy(kHeader.begin(), kHeader.end(), begin);
  for (const Request& r : requests) {
    if (static_cast<std::size_t>(end - at) < kMaxRow) {
      out.write(begin, at - begin);
      at = begin;
    }
    at = std::to_chars(at, end, r.arrival.value(),
                       std::chars_format::general, 17)
             .ptr;
    const std::string_view op = r.op == Op::kRead ? ",read," : ",write,";
    at = std::copy(op.begin(), op.end(), at);
    at = std::to_chars(at, end, r.bank).ptr;
    *at++ = '\n';
  }
  out.write(begin, at - begin);
}

}  // namespace sttram::engine
