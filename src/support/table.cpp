#include "src/support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/support/error.hpp"

namespace adapt {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  ADAPT_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  ADAPT_CHECK(cells.size() == header_.size())
      << "row has " << cells.size() << " cells, header has " << header_.size();
  rows_.push_back(std::move(cells));
}

void Table::add_row_numeric(const std::string& label,
                            const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    cells.emplace_back(buf);
  }
  add_row(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) rule += "  ";
    rule.append(width[c], '-');
  }
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace adapt
