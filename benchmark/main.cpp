// idonly_bench — the repository benchmark's program. See README.md.
//
//   idonly_bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>]
//
// Prints the machine and build record, every metric by name with its unit
// and sample count, and fail_rate; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The full record
// (failures included) goes to <out-dir>/<workload>-seed<n>-trace<t>.json,
// and a traced run's spans to ...-spans.json as Chrome trace events.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace bench;

constexpr std::size_t kMinReps = 3;

int usage(const char* why) {
  std::fprintf(stderr,
               "idonly_bench: %s\nusage: idonly_bench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Named {
  std::string prefix;  ///< "" for a single workload, "<workload>." for all
  Report report;
};

void print_record(const BuildRecord& b) {
  std::printf("machine: nproc %u, cpu %s\n", b.nproc, b.cpu_model.c_str());
  std::printf("build: %s, %s, flags \"%s\", sanitizers %s, optimized %s, assertions %s\n",
              b.build_type.c_str(), b.compiler.c_str(), b.cxx_flags.c_str(),
              b.sanitizers.c_str(), b.optimized ? "yes" : "no", b.assertions ? "on" : "off");
  if (b.flagged) {
    std::printf("WARNING: unoptimized or sanitizer build; these numbers must not be compared "
                "with an optimized build's\n");
  }
}

void print_report(const Named& n) {
  for (const Metric& m : n.report.metrics) {
    const std::string name = n.prefix + m.name;
    const std::string how = !m.detail.empty() ? m.detail
                            : std::to_string(m.samples) + (m.samples == 1 ? " sample" : " samples");
    std::printf("%-40s %14.6g %-6s (%s)\n", name.c_str(), m.value, m.unit.c_str(), how.c_str());
  }
  std::printf("%-40s %14.6g %-6s (%llu of %llu checked runs failed)\n",
              (n.prefix + "fail_rate").c_str(), fail_rate(n.report.failed, n.report.attempted),
              "ratio", static_cast<unsigned long long>(n.report.failed),
              static_cast<unsigned long long>(n.report.attempted));
  for (const std::string& f : n.report.failures) std::printf("FAILED: %s\n", f.c_str());
}

void write_record(const std::string& path, const BuildRecord& b, const std::string& workload,
                  std::uint64_t seed, int seconds, bool trace, const std::vector<Named>& all) {
  std::ofstream out(path);
  out << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
      << ",\"held_out_seed\":" << held_out_seed(seed) << ",\"seconds\":" << seconds
      << ",\"trace\":" << (trace ? 1 : 0) << ",\n\"machine\":{\"nproc\":" << b.nproc
      << ",\"cpu_model\":" << json_string(b.cpu_model) << "},\n\"build\":{\"type\":"
      << json_string(b.build_type) << ",\"compiler\":" << json_string(b.compiler)
      << ",\"cxx_flags\":" << json_string(b.cxx_flags)
      << ",\"sanitizers\":" << json_string(b.sanitizers)
      << ",\"optimized\":" << (b.optimized ? "true" : "false")
      << ",\"assertions\":" << (b.assertions ? "true" : "false")
      << ",\"flagged\":" << (b.flagged ? "true" : "false") << "},\n\"results\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Report& r = all[i].report;
    out << (i == 0 ? "\n" : ",\n") << "{\"prefix\":" << json_string(all[i].prefix)
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"fail_rate\":" << json_number(fail_rate(r.failed, r.attempted)) << ",\"failures\":[";
    for (std::size_t k = 0; k < r.failures.size(); ++k) {
      out << (k == 0 ? "" : ",") << json_string(r.failures[k]);
    }
    out << "],\"metrics\":[";
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
      const Metric& m = r.metrics[k];
      out << (k == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(m.name)
          << ",\"unit\":" << json_string(m.unit) << ",\"value\":" << json_number(m.value)
          << ",\"samples\":" << m.samples << ",\"detail\":" << json_string(m.detail) << "}";
    }
    out << "]}";
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir;
  long long seed = -1;
  long long run_seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage("--seed takes a whole number >= 0");
    } else if (arg == "--seconds") {
      run_seconds = std::strtoll(value, &end, 10);
      if (*end != '\0' || run_seconds < 1) return usage("--seconds takes a whole number >= 1");
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return usage("--trace takes 0 or 1");
      }
      trace = value[0] - '0';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload_name.empty() || seed < 0 || run_seconds < 1 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  std::vector<const Workload*> chosen;
  if (workload_name == "all") {
    for (const Workload& w : workloads()) chosen.push_back(&w);
  } else if (const Workload* w = find_workload(workload_name)) {
    chosen.push_back(w);
  } else {
    return usage(("unknown workload " + workload_name).c_str());
  }
  const auto useed = static_cast<std::uint64_t>(seed);
  const bool all = chosen.size() > 1;

  const BuildRecord build = build_record();
  std::printf("idonly benchmark: workload %s, seed %llu (held-out %llu), %s run, %lld s\n",
              workload_name.c_str(), static_cast<unsigned long long>(useed),
              static_cast<unsigned long long>(held_out_seed(useed)),
              trace ? "traced" : "end-to-end", run_seconds);
  print_record(build);
  std::fflush(stdout);

  std::vector<Named> results;
  if (trace == 1) {
    for (const Workload* w : chosen) {
      results.push_back(Named{all ? std::string(w->name) + "." : "", trace_workload(*w, useed)});
      if (!out_dir.empty() && !results.back().report.spans.empty()) {
        write_chrome_trace(out_dir + "/" + w->name + "-seed" + std::to_string(useed) +
                               "-spans.json",
                           results.back().report.spans);
      }
    }
  } else {
    std::vector<Measurement> runs;
    for (const Workload* w : chosen) runs.emplace_back(*w, useed);
    // Probes fork while the process is still small; then every workload is
    // prepared (reference + warm-up) before any timing starts.
    for (Measurement& m : runs) m.probe();
    for (Measurement& m : runs) m.prepare();
    // Workloads are interleaved rep by rep, so drift on a shared machine
    // spreads over all of them instead of landing on one.
    const std::int64_t begin = now_ns();
    const double budget = static_cast<double>(run_seconds) * static_cast<double>(runs.size());
    for (;;) {
      bool enough = static_cast<double>(now_ns() - begin) / 1e9 >= budget;
      for (const Measurement& m : runs) enough = enough && m.reps() >= kMinReps;
      if (enough) break;
      for (Measurement& m : runs) m.rep();
    }
    for (const Measurement& m : runs) {
      results.push_back(Named{all ? std::string(m.workload().name) + "." : "", m.report()});
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Named& n : results) {
    print_report(n);
    attempted += n.report.attempted;
    failed += n.report.failed;
  }
  if (!out_dir.empty()) {
    const std::string path = out_dir + "/" + workload_name + "-seed" + std::to_string(useed) +
                             "-trace" + std::to_string(trace) + ".json";
    write_record(path, build, workload_name, useed, static_cast<int>(run_seconds), trace == 1,
                 results);
    std::printf("record: %s\n", path.c_str());
  }

  std::string line = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Named& n : results) {
    for (const Metric& m : n.report.metrics) {
      line += (first ? "" : ", ") + json_string(n.prefix + m.name) +
              ": {\"value\": " + json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
      first = false;
    }
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
