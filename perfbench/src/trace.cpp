#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t op,
                      std::uint64_t count)
    : log_(log) {
  if (!log_.enabled_) return;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = log_.open_.empty() ? -1 : log_.open_.back();
  s.count = count;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         log_.t0_)
                   .count();
  index_ = static_cast<std::int64_t>(log_.spans_.size());
  log_.spans_.push_back(s);
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - log_.t0_)
          .count();
  log_.open_.pop_back();
}

double SpanLog::total_ms(const std::string& name) const {
  double us = 0;
  for (const Span& s : spans_)
    if (name == s.name) us += s.end_us - s.start_us;
  return us / 1000.0;
}

std::uint64_t SpanLog::total_count(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (name == s.name) n += s.count;
  return n;
}

void SpanLog::write_json(const std::string& path,
                         const std::string& other) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"op\":%llu,\"count\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.count));
  }
  std::fprintf(f, "],\"otherData\":%s}\n", other.c_str());
  std::fclose(f);
}

double CryptoUnitCosts::open_us(std::size_t payload) const {
  auto it = data_open_us.lower_bound(payload);
  if (it == data_open_us.end()) return data_open_us.empty() ? 0 : data_open_us.rbegin()->second;
  return it->second;
}

void fill_net_layer(const mykil::net::Network& net,
                    std::map<std::string, double>& layer) {
  const mykil::net::NetStats& st = net.stats();
  layer["net.messages_sent"] = static_cast<double>(st.sent_total().messages);
  layer["net.bytes_sent"] = static_cast<double>(st.sent_total().bytes);
  for (const char* label :
       {"mykil-rekey", "mykil-data", "mykil-join", "mykil-rejoin",
        "mykil-recovery", "mykil-repl", "mykil-alive"})
    layer[std::string("net.bytes.") + label] =
        static_cast<double>(st.sent_by_label(label).bytes);
  layer["net.fanout_copied_bytes"] =
      static_cast<double>(st.fanout_copied().bytes);
  layer["net.fanout_expanded_bytes"] =
      static_cast<double>(st.fanout_expanded().bytes);
  if (net.engine_profile_enabled()) {
    mykil::net::EngineProfile p = net.engine_profile();
    double busy = 0, stall = 0;
    for (const auto& s : p.shards) {
      busy += s.busy_ms;
      stall += s.stall_ms;
    }
    layer["net.engine.windows"] = static_cast<double>(p.windows);
    layer["net.engine.solo_windows"] = static_cast<double>(p.solo_windows);
    layer["net.engine.busy_ms"] = busy;
    layer["net.engine.stall_ms"] = stall;
    layer["net.engine.merged_events"] = static_cast<double>(p.merged_events);
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t fnv1a(mykil::ByteView b) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
