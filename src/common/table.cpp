#include "common/table.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace sdr {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  auto emit_sep = [&] {
    os << "+";
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  emit_sep();
  emit_row(headers_);
  emit_sep();
  for (const auto& row : rows_) emit_row(row);
  emit_sep();
  return os.str();
}

void TextTable::print(FILE* out) const {
  const std::string s = render();
  std::fwrite(s.data(), 1, s.size(), out);
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string TextTable::sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

}  // namespace sdr
