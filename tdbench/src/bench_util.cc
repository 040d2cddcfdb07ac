#include "bench_util.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace tdbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

size_t CountAbove(const std::vector<double>& v, double threshold) {
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  Span s;
  s.name = name;
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->open_.push_back(id_);
  s.start = NowSeconds();
  tracer_->spans_.push_back(std::move(s));
}

void Tracer::Scope::Close() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(id_)].end = NowSeconds();
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

double Tracer::SelfSeconds(size_t i) const {
  double self = spans_[i].end - spans_[i].start;
  for (size_t j = i + 1; j < spans_.size(); ++j) {
    if (spans_[j].parent == static_cast<int>(i)) {
      self -= spans_[j].end - spans_[j].start;
    }
  }
  return self;
}

std::vector<double> Tracer::SelfSecondsOf(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(SelfSeconds(i));
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent);
  }
  return std::fclose(f) == 0;
}

void RunLedger::Attempt(const std::string& kind, uint64_t n) {
  attempted_[kind] += n;
  failed_[kind] += 0;
}

void RunLedger::Fail(const std::string& kind, const std::string& why) {
  if (failed_[kind]++ < 5) {
    std::fprintf(stderr, "tdbench: %s failed: %s\n", kind.c_str(), why.c_str());
  }
}

void RunLedger::CheckFailed(const std::string& what) {
  if (check_failures_++ < 20) {
    std::fprintf(stderr, "tdbench: CHECK FAILED: %s\n", what.c_str());
  }
}

uint64_t RunLedger::attempted() const {
  uint64_t n = 0;
  for (const auto& [kind, count] : attempted_) n += count;
  return n;
}

uint64_t RunLedger::failed() const {
  uint64_t n = 0;
  for (const auto& [kind, count] : failed_) n += count;
  return n;
}

void RunLedger::PrintSummary() const {
  for (const auto& [kind, count] : attempted_) {
    std::printf("ops %-8s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(failed_.at(kind)));
  }
  std::printf("checks failed=%llu\n",
              static_cast<unsigned long long>(check_failures_));
}

void PrintResult(const RunLedger& ledger,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace tdbench
