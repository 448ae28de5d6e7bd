// axc_bench: end-to-end benchmark of the served axc stack.
//
//   axc_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH]
//       one workload in this process; prints one line per metric,
//       "<workload> <metric> <value> <unit> n=<samples>", then a JSON
//       result object as the last line of standard output;
//   axc_bench [--seed N] [--seconds S] [--trace 0|1]
//       every workload, each in a fresh process (re-executes itself), so
//       process-wide caches start empty and peak RSS is per workload;
//   axc_bench --smoke [--spec BENCHMARK.json]
//       every workload on <= 48 requests, untraced and traced; fails
//       unless every check passes and every metric the spec names prints.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace axc_bench;

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans;
  std::string spec;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: axc_bench [--workload encode_cold|gate_cold|"
               "error_cold|cache_hot] [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--spans PATH] "
               "[--smoke [--spec BENCHMARK.json]]\n");
}

template <class T>
bool parse_number(std::string_view text, T& value) {
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return error == std::errc{} && end == text.data() + text.size();
}

/// Parses argv; nullopt (after printing why) on a usage error.
std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "-h" || flag == "--help") {
      usage(stdout);
      std::exit(0);
    }
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "axc_bench: %s needs a value\n", argv[i]);
      return std::nullopt;
    }
    const std::string_view value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = parse_workload(value);
      ok = args.workload.has_value();
    } else if (flag == "--seed") {
      ok = parse_number(value, args.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, args.seconds) && args.seconds > 0 &&
           args.seconds <= 3600;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--spec") {
      args.spec = value;
    } else {
      std::fprintf(stderr, "axc_bench: unknown option %s\n", argv[i - 1]);
      return std::nullopt;
    }
    if (!ok) {
      std::fprintf(stderr, "axc_bench: bad value '%s' for %s\n",
                   std::string(value).c_str(), std::string(flag).c_str());
      return std::nullopt;
    }
  }
  return args;
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string result_json(const RunOutcome& outcome, bool correct) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : outcome.metrics.metrics()) {
    json << (first ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << number(metric.value) << ", \"unit\": \""
         << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  return json.str();
}

int run_one(const Args& args) {
  RunOptions options;
  options.workload = *args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace;
  options.spans_path = args.spans;
  if (args.smoke) {
    options.max_requests = 48;
    options.setup_repeats = 2;
    options.warmup_seconds = 0.5;
    options.oracle_requests = 8;
    options.ledger_requests = 18;  // reaches all four design-space sweeps
  }
  RunOutcome outcome = run_workload(options);

  const std::string_view name = workload_name(options.workload);
  for (const Report* report : {&outcome.metrics, &outcome.info}) {
    for (const Metric& metric : report->metrics()) {
      if (!std::isfinite(metric.value)) {
        outcome.problems.push_back(metric.name + " is not finite");
      }
      std::printf("%s %s %s %s n=%llu\n", std::string(name).c_str(),
                  metric.name.c_str(), number(metric.value).c_str(),
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    }
  }
  if (!outcome.digest.empty()) {
    std::printf("%s response_digest %s fnv1a n=%llu\n",
                std::string(name).c_str(), outcome.digest.c_str(),
                static_cast<unsigned long long>(outcome.digest_requests));
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "axc_bench: %s: %s\n", std::string(name).c_str(),
                 problem.c_str());
  }
  const bool correct = outcome.problems.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;
  std::printf("%s\n", result_json(outcome, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

struct Child {
  int exit_code = -1;
  std::string out;
};

/// Runs this binary with \p args, capturing its standard output.
Child run_self(const std::vector<std::string>& args) {
  Child child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    static char self[] = "axc_bench";
    argv.push_back(self);
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  char buffer[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof buffer)) > 0) {
    child.out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return child;
}

std::vector<std::string> child_args(const Args& args, Workload workload,
                                    bool trace) {
  std::vector<std::string> out = {"--workload",
                                  std::string(workload_name(workload)),
                                  "--seed", std::to_string(args.seed),
                                  "--seconds", number(args.seconds),
                                  "--trace", trace ? "1" : "0"};
  if (args.smoke) out.push_back("--smoke");
  if (!args.spans.empty()) {
    out.push_back("--spans");
    out.push_back(args.spans + "." + std::string(workload_name(workload)));
  }
  return out;
}

std::string last_line(const std::string& text) {
  std::string trimmed = text;
  while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
  const std::size_t newline = trimmed.rfind('\n');
  return newline == std::string::npos ? trimmed : trimmed.substr(newline + 1);
}

/// Metric names in a result object's "metrics" map.
std::set<std::string> result_metrics(const std::string& json) {
  static const std::regex key(R"re("([A-Za-z0-9_.-]+)": \{"value")re");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), key);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

/// The metric names a BENCHMARK.json lists under \p section.
std::set<std::string> spec_metrics(const std::string& spec,
                                   const std::string& section) {
  std::set<std::string> names;
  const std::size_t at = spec.find("\"" + section + "\"");
  if (at == std::string::npos) return names;
  const std::size_t open = spec.find('[', at);
  const std::size_t close = spec.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string list = spec.substr(open, close - open);
  static const std::regex name(R"re("name"\s*:\s*"([^"]+)")re");
  for (auto it = std::sregex_iterator(list.begin(), list.end(), name);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

/// Every workload in its own process; --smoke also checks the outputs
/// against the spec.
int run_all(const Args& args) {
  std::string spec;
  if (!args.spec.empty()) {
    std::ifstream in(args.spec);
    std::stringstream text;
    text << in.rdbuf();
    spec = text.str();
    if (spec.empty()) {
      std::fprintf(stderr, "axc_bench: cannot read %s\n", args.spec.c_str());
      return 1;
    }
  }
  const std::vector<bool> modes =
      args.smoke ? std::vector<bool>{false, true} : std::vector<bool>{args.trace};
  bool ok = true;
  for (const Workload workload : kWorkloads) {
    for (const bool trace : modes) {
      const Child child = run_self(child_args(args, workload, trace));
      std::fwrite(child.out.data(), 1, child.out.size(), stdout);
      std::fflush(stdout);
      const std::string result = last_line(child.out);
      if (child.exit_code != 0 ||
          result.find("\"correct\": true") == std::string::npos) {
        std::fprintf(stderr, "axc_bench: %s (trace %d) failed, exit %d\n",
                     std::string(workload_name(workload)).c_str(), trace,
                     child.exit_code);
        ok = false;
        continue;
      }
      if (spec.empty()) continue;
      const std::set<std::string> printed = result_metrics(result);
      for (const std::string& name :
           spec_metrics(spec, trace ? "per_layer" : "end_to_end")) {
        if (!printed.count(name)) {
          std::fprintf(stderr, "axc_bench: %s (trace %d) lacks metric %s\n",
                       std::string(workload_name(workload)).c_str(), trace,
                       name.c_str());
          ok = false;
        }
      }
    }
  }
  std::printf("axc_bench: %s\n", ok ? "all workloads passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    usage(stderr);
    return 2;
  }
  if (args->workload) return run_one(*args);
  return run_all(*args);
}
