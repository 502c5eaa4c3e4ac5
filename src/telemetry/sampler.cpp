#include "telemetry/sampler.hpp"

#include <cstdio>
#include <sstream>

namespace sdr::telemetry {

void Sampler::sample(double now_s) {
  scratch_.clear();
  registry_->flatten(scratch_);
  Row row;
  row.t_s = now_s;
  row.values.reserve(scratch_.size());
  for (const FlatMetric& m : scratch_) {
    auto it = column_index_.find(m.name);
    std::uint32_t idx;
    if (it == column_index_.end()) {
      idx = static_cast<std::uint32_t>(columns_.size());
      column_index_.emplace(m.name, idx);
      columns_.push_back(m.name);
    } else {
      idx = it->second;
    }
    row.values.emplace_back(idx, m.value);
  }
  rows_.push_back(std::move(row));
}

void Sampler::write_csv(std::ostream& os) const {
  os << "sim_time_s";
  for (const std::string& col : columns_) os << ',' << col;
  os << '\n';
  char buf[64];
  std::vector<double> dense(columns_.size());
  std::vector<bool> present(columns_.size());
  for (const Row& row : rows_) {
    std::fill(present.begin(), present.end(), false);
    for (const auto& [idx, value] : row.values) {
      dense[idx] = value;
      present[idx] = true;
    }
    std::snprintf(buf, sizeof(buf), "%.10g", row.t_s);
    os << buf;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      os << ',';
      if (present[i]) {
        std::snprintf(buf, sizeof(buf), "%.10g", dense[i]);
        os << buf;
      }
    }
    os << '\n';
  }
  // Columns that registered mid-run leave early rows ragged relative to the
  // final schema; restate it as a trailing comment so row-streaming readers
  // (which saw the narrow prefix) can reconcile without reparsing.
  if (!rows_.empty() && rows_.front().values.size() < columns_.size()) {
    os << "# columns: sim_time_s";
    for (const std::string& col : columns_) os << ',' << col;
    os << '\n';
  }
}

std::string Sampler::to_csv() const {
  std::ostringstream oss;
  write_csv(oss);
  return oss.str();
}

}  // namespace sdr::telemetry
