#include "telemetry/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.hpp"

namespace sdr::telemetry {

namespace detail {
thread_local constinit bool g_metrics_on = false;
}  // namespace detail

namespace {

Registry& default_registry() {
  static Registry instance;
  return instance;
}

thread_local Registry* t_registry = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void Registry::enable() {
  enabled_ = true;
  if (this == &registry()) detail::g_metrics_on = true;
  SDR_INFO("telemetry registry enabled");
}

void Registry::disable() {
  SDR_INFO("telemetry registry disabled (%zu metrics dropped)",
           entries_.size());
  clear();
  enabled_ = false;
  if (this == &registry()) detail::g_metrics_on = false;
}

void Registry::clear() {
  entries_.clear();
  by_name_.clear();
  instance_counters_.clear();
  next_id_ = 1;
}

Counter Registry::counter(const std::string& name) {
  if (!enabled_) return Counter{};
  if (const Entry* e = find(name); e != nullptr && e->owned_counter) {
    return Counter{e->owned_counter.get()};
  }
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.owned_counter = std::make_unique<std::uint64_t>(0);
  e.counter = e.owned_counter.get();
  std::uint64_t* slot = e.owned_counter.get();
  add_entry(std::move(e));
  return Counter{slot};
}

Gauge Registry::gauge(const std::string& name) {
  if (!enabled_) return Gauge{};
  if (const Entry* e = find(name); e != nullptr && e->owned_gauge) {
    return Gauge{e->owned_gauge.get()};
  }
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.owned_gauge = std::make_unique<double>(0.0);
  double* slot = e.owned_gauge.get();
  add_entry(std::move(e));
  return Gauge{slot};
}

std::string Registry::instance_name(const std::string& base) {
  const std::uint64_t idx = instance_counters_[base]++;
  return base + std::to_string(idx);
}

bool Registry::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr || e->counter == nullptr) return 0;
  return *e->counter;
}

double Registry::gauge_value(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) return 0.0;
  return entry_value(*e);
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->owned_hist.get() : nullptr;
}

double Registry::entry_value(const Entry& e) const {
  switch (e.kind) {
    case MetricKind::kCounter:
      return e.counter != nullptr ? static_cast<double>(*e.counter) : 0.0;
    case MetricKind::kGauge:
      if (e.gauge_fn) return e.gauge_fn();
      return e.owned_gauge ? *e.owned_gauge : 0.0;
    case MetricKind::kHistogram:
      return e.owned_hist ? static_cast<double>(e.owned_hist->count()) : 0.0;
  }
  return 0.0;
}

void Registry::flatten(std::vector<FlatMetric>& out) const {
  for (const Entry& e : entries_) {
    if (const Histogram* h = e.owned_hist.get()) {
      out.push_back({e.name + ".count", static_cast<double>(h->count())});
      out.push_back({e.name + ".mean", h->mean()});
      out.push_back({e.name + ".p50", h->percentile(50.0)});
      out.push_back({e.name + ".p99", h->percentile(99.0)});
      out.push_back({e.name + ".p999", h->percentile(99.9)});
      out.push_back({e.name + ".max", h->max()});
    } else {
      out.push_back({e.name, entry_value(e)});
    }
  }
}

std::string Registry::to_jsonl() const {
  std::vector<FlatMetric> flat;
  flatten(flat);
  std::string out;
  out.reserve(flat.size() * 64);
  char buf[512];
  for (const FlatMetric& m : flat) {
    std::snprintf(buf, sizeof(buf), "{\"metric\":\"%s\",\"value\":%.10g}\n",
                  m.name.c_str(), m.value);
    out += buf;
  }
  return out;
}

std::uint64_t Registry::add_entry(Entry e) {
  e.id = next_id_++;
  const std::uint64_t id = e.id;
  by_name_[e.name] = entries_.size();
  entries_.push_back(std::move(e));
  return id;
}

void Registry::freeze_entries(const std::vector<std::uint64_t>& ids) {
  for (const std::uint64_t id : ids) {
    // add_entry appends in increasing id order and only clear() removes
    // entries, so entries_ is sorted by id.
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, std::uint64_t v) { return e.id < v; });
    if (it == entries_.end() || it->id != id) continue;
    Entry& e = *it;
    // Copy the last value out of the component that is about to die, so the
    // metric survives for end-of-run export (bench --telemetry-out dumps
    // after the stacks are destroyed). Owned storage is already safe.
    switch (e.kind) {
      case MetricKind::kCounter:
        if (!e.owned_counter && e.counter != nullptr) {
          e.owned_counter = std::make_unique<std::uint64_t>(*e.counter);
          e.counter = e.owned_counter.get();
        }
        break;
      case MetricKind::kGauge:
        if (e.gauge_fn) {
          e.owned_gauge = std::make_unique<double>(e.gauge_fn());
          e.gauge_fn = nullptr;
        }
        break;
      case MetricKind::kHistogram:
        break;
    }
  }
}

const Registry::Entry* Registry::find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return &entries_[it->second];
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

Scope::Scope(Registry& registry, std::string prefix)
    : registry_(registry.enabled() ? &registry : nullptr),
      prefix_(std::move(prefix)) {}

Scope::Scope(Scope&& other) noexcept
    : registry_(other.registry_),
      prefix_(std::move(other.prefix_)),
      ids_(std::move(other.ids_)) {
  other.registry_ = nullptr;
  other.ids_.clear();
}

Scope& Scope::operator=(Scope&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    prefix_ = std::move(other.prefix_);
    ids_ = std::move(other.ids_);
    other.registry_ = nullptr;
    other.ids_.clear();
  }
  return *this;
}

Scope::~Scope() { release(); }

void Scope::release() {
  if (registry_ != nullptr && !ids_.empty()) {
    registry_->freeze_entries(ids_);
  }
  registry_ = nullptr;
  ids_.clear();
}

std::string Scope::full(const char* name) const {
  std::string out = prefix_;
  out += '.';
  out += name;
  return out;
}

Counter Scope::counter(const char* name) {
  if (registry_ == nullptr) return Counter{};
  Registry::Entry e;
  e.name = full(name);
  e.kind = MetricKind::kCounter;
  e.owned_counter = std::make_unique<std::uint64_t>(0);
  e.counter = e.owned_counter.get();
  std::uint64_t* slot = e.owned_counter.get();
  ids_.push_back(registry_->add_entry(std::move(e)));
  return Counter{slot};
}

Gauge Scope::gauge(const char* name) {
  if (registry_ == nullptr) return Gauge{};
  Registry::Entry e;
  e.name = full(name);
  e.kind = MetricKind::kGauge;
  e.owned_gauge = std::make_unique<double>(0.0);
  double* slot = e.owned_gauge.get();
  ids_.push_back(registry_->add_entry(std::move(e)));
  return Gauge{slot};
}

HistogramHandle Scope::histogram(const char* name, double min_value,
                                 double max_value) {
  if (registry_ == nullptr) return HistogramHandle{};
  Registry::Entry e;
  e.name = full(name);
  e.kind = MetricKind::kHistogram;
  e.owned_hist = std::make_unique<Histogram>(min_value, max_value);
  Histogram* slot = e.owned_hist.get();
  ids_.push_back(registry_->add_entry(std::move(e)));
  return HistogramHandle{slot};
}

void Scope::bind_counter(const char* name, const std::uint64_t* value) {
  if (registry_ == nullptr) return;
  Registry::Entry e;
  e.name = full(name);
  e.kind = MetricKind::kCounter;
  e.counter = value;
  ids_.push_back(registry_->add_entry(std::move(e)));
}

void Scope::bind_gauge(const char* name, std::function<double()> fn) {
  if (registry_ == nullptr) return;
  Registry::Entry e;
  e.name = full(name);
  e.kind = MetricKind::kGauge;
  e.gauge_fn = std::move(fn);
  ids_.push_back(registry_->add_entry(std::move(e)));
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

Registry& registry() {
  return t_registry != nullptr ? *t_registry : default_registry();
}

Registry* set_thread_registry(Registry* r) {
  Registry* prev = t_registry;
  t_registry = r;
  detail::g_metrics_on = registry().enabled();
  return prev;
}

}  // namespace sdr::telemetry
