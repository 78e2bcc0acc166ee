// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload count-steady|count-migrate|nexmark-mesh
//             --seed N --seconds S [--trace FILE]
//
// Prints every end-to-end metric by name and unit, the ungated tail and
// host-stall diagnostics, and as its last line one JSON object with the
// correctness verdict and every metric. With --trace, spans recorded from
// the benchmark loop are written to FILE as Chrome trace-event JSON (Perfetto
// opens it), the layer passes run, and the JSON carries the per-layer
// metrics and each span name's self time. Exits 1 when a correctness
// check fails, 2 on a usage error or an aborted run.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const std::map<std::string, const char*>& E2eUnits() {
  static const std::map<std::string, const char*> units = {
      {"recs_per_s", "records/s"}, {"steady_p50_ms", "ms"},
      {"mig_p50_ms", "ms"},        {"mig_s", "s"},
      {"peak_rss_mb", "MiB"},      {"setup_s", "s"},
      {"error_rate", "fraction"}};
  return units;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct SelfRow {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Self time per span name: a span's duration minus the part of it its
/// child spans (spans of the same thread nested inside it) cover.
std::map<std::string, SelfRow> SelfTimes(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::vector<uint64_t> child(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.pid == s.pid && top.tid == s.tid && top.end > s.start) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      child[stack.back()] += std::min(s.end, spans[stack.back()].end) - s.start;
    }
    stack.push_back(i);
  }
  std::map<std::string, SelfRow> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfRow& r = rows[SpanName(spans[i].kind)];
    double dur = static_cast<double>(spans[i].end - spans[i].start) * 1e-6;
    r.count++;
    r.total_ms += dur;
    r.self_ms += dur - static_cast<double>(std::min(
                           child[i], spans[i].end - spans[i].start)) * 1e-6;
  }
  return rows;
}

/// Chrome trace-event JSON: one complete ("X") event per span, with
/// process and thread names so Perfetto labels the tracks.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  std::map<std::pair<uint32_t, uint32_t>, bool> tracks;
  for (const auto& s : spans) {
    t0 = std::min(t0, s.start);
    tracks[{s.pid, s.tid}] = true;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const auto& [track, _] : tracks) {
    auto [pid, tid] = track;
    std::string name = tid == kEpochTrack       ? "epochs"
                       : tid == kMigrationTrack ? "migrations"
                                                : "worker " + std::to_string(tid);
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, tid, name.c_str());
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"process %u\"}}",
                 pid, pid);
  }
  for (const auto& s : spans) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"epoch\":%" PRIu64 "}}",
                 SpanName(s.kind), static_cast<double>(s.start - t0) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3, s.pid, s.tid,
                 s.epoch);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload count-steady|count-migrate|"
               "nexmark-mesh --seed N --seconds S [--trace FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_path;
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace_path = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return Usage();
  opt.trace = !trace_path.empty();

  WorkloadResult r;
  if (workload == "count-steady") {
    r = RunCountSteady(opt);
  } else if (workload == "count-migrate") {
    r = RunCountMigrate(opt);
  } else if (workload == "nexmark-mesh") {
    r = RunNexmarkMesh(opt);
  } else {
    return Usage();
  }
  r.e2e["error_rate"] = r.attempted ? static_cast<double>(r.failed) /
                                          static_cast<double>(r.attempted)
                                    : 1.0;
  const bool correct = r.attempted > 0 && r.failed == 0;

  std::printf("workload %s  seed %" PRIu64 "  seconds %g%s\n", workload.c_str(),
              opt.seed, opt.seconds, opt.trace ? "  (traced)" : "");
  for (const auto& [name, unit] : E2eUnits()) {
    std::printf("  %-14s %14.6g %s\n", name.c_str(), r.e2e[name], unit);
  }
  std::printf("  correctness: %s (%" PRIu64 " of %" PRIu64
              " records or events failed)\n",
              correct ? "ok" : "MISMATCH", r.failed, r.attempted);
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());

  std::map<std::string, SelfRow> self;
  if (opt.trace) {
    self = SelfTimes(r.spans);
    if (!WriteTrace(trace_path, r.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }

  std::string json = "{\"workload\":" + Quote(workload) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"e2e\":{";
  bool first = true;
  for (const auto& [name, unit] : E2eUnits()) {
    json += std::string(first ? "" : ",") + Quote(name) + ":" + Num(r.e2e[name]);
    first = false;
  }
  json += "},\"layers\":{";
  first = true;
  for (const auto& [name, v] : r.layers) {
    json += std::string(first ? "" : ",") + Quote(name) + ":" + Num(v);
    first = false;
  }
  json += "},\"self_ms\":{";
  first = true;
  for (const auto& [name, row] : self) {
    json += std::string(first ? "" : ",") + Quote(name) + ":{\"count\":" +
            std::to_string(row.count) + ",\"total_ms\":" + Num(row.total_ms) +
            ",\"self_ms\":" + Num(row.self_ms) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 2;
  }
}
