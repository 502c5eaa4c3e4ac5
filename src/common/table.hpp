// ASCII table printer used by the bench harness to emit paper-style rows.
//
// Each bench binary regenerates one figure/table of the paper; emitting the
// series as aligned text tables makes visual shape comparison against the
// paper straightforward.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace sdr {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Append one row; the cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Render with column alignment to a string.
  std::string render() const;

  void print(FILE* out = stdout) const;

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 4);
  static std::string sci(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sdr
