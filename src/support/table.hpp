// Aligned ASCII table emitter used by every figure/table benchmark so that
// bench output looks like the rows the paper reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace adapt {

/// Column-aligned text table. Usage:
///   Table t({"algo", "64KB", "128KB"});
///   t.add_row({"ompi-adapt", "0.42ms", "0.81ms"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with fixed precision.
  void add_row_numeric(const std::string& label,
                       const std::vector<double>& values, int precision = 3);

  std::size_t rows() const { return rows_.size(); }
  void print(std::ostream& os) const;
  /// Comma-separated dump (for downstream plotting).
  void print_csv(std::ostream& os) const;
  /// One JSON object: {"header": [...], "rows": [[...], ...]} (no trailing
  /// newline — composable inside larger documents, see bench::JsonReport).

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& row_data() const {
    return rows_;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace adapt
