/// Example: typed command-line client for axc_server.
///
/// One subcommand per service endpoint; responses print as one flat
/// key=value line per field so smoke scripts can grep them. Non-Ok
/// statuses (bad_request, overloaded, deadline_exceeded, ...) exit 3,
/// transport failures exit 1, usage errors exit 2.
///
/// With --ring <file> (one host:port per line, ring order) the client
/// routes through a ClusterClient instead of a single connection: each
/// request goes to the node owning its canonical hash, failing over
/// along the replica ranking when a node is dead or draining (see
/// DESIGN.md §12). Typed commands work identically in both modes;
/// pipeline/hold/shutdown are single-connection tools and stay non-ring.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "axc/cluster/client.hpp"
#include "axc/service/protocol.hpp"
#include "axc/service/retry.hpp"
#include "axc/service/tcp.hpp"
#include "axc/service/transport.hpp"
#include "cli_util.hpp"

namespace {

constexpr const char* kUsage =
    "usage: axc_client [--host <addr>] [--port <n>] [--deadline-ms <n>]\n"
    "                  <command> [command options]\n"
    "\n"
    "commands:\n"
    "  ping                     health check\n"
    "  characterize-adder       --family gear|loa|etai|ripple --width N\n"
    "                           --param-a R|lsbs [--param-b P] [--cell 0..5]\n"
    "                           [--vectors N] [--seed S]\n"
    "  characterize-multiplier  --structure recursive|wallace --width N\n"
    "                           [--block accurate|soa|ours] [--cell 0..5]\n"
    "                           [--approx-lsbs N] [--vectors N] [--seed S]\n"
    "  evaluate-error           --target gear|multiplier\n"
    "                           gear: [--n N --r R --p P] [--correction K]\n"
    "                           mul:  [--mul-width N] [--block ...]\n"
    "                                 [--cell 0..5] [--approx-lsbs N]\n"
    "                           [--max-exhaustive-bits B] [--samples N]\n"
    "                           [--seed S]\n"
    "  gear-design-space        [--width N] [--min-p P] [--include-exact]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  hetero-adder-design-space\n"
    "                           [--width N] [--block-width B]\n"
    "                           [--no-truncated] [--estimate-power]\n"
    "                           [--min-accuracy PCT]\n"
    "  array-mul-design-space   [--width N] [--max-approx-columns C]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  static-adder-design-space\n"
    "                           [--width N] [--max-approx-lsbs K]\n"
    "                           [--estimate-power] [--min-accuracy PCT]\n"
    "  encode-probe             [--width W] [--height H] [--frames F]\n"
    "                           [--objects K] [--sequence-seed S]\n"
    "                           [--sad-variant 0..5] [--approx-lsbs N]\n"
    "                           [--block-size B] [--search-range R]\n"
    "                           [--quant-step Q]\n"
    "  pipeline                 [--count N] pipelined pings over one\n"
    "                           multiplexed connection: N submits, one\n"
    "                           flush, responses collected in reverse\n"
    "                           order\n"
    "  hold                     [--connections N] [--hold-ms T] open N\n"
    "                           idle connections, ping through the first\n"
    "                           and last, hold them T ms (for probing\n"
    "                           server thread counts under load)\n"
    "  shutdown                 ask the server to stop (needs\n"
    "                           --allow-remote-shutdown server-side)\n"
    "\n"
    "global options:\n"
    "  --host <addr>        numeric IPv4 server address (default 127.0.0.1)\n"
    "  --port <n>           server port (required unless --ring)\n"
    "  --ring <file>        route through a cluster ring instead of one\n"
    "                       server: one host:port per line, line i = ring\n"
    "                       index i (must match the servers' --ring-file);\n"
    "                       typed commands only\n"
    "  --deadline-ms <n>    per-request deadline, 0 = none (default 0)\n"
    "  --retries <n>        retry transport failures up to n times with\n"
    "                       exponential backoff, reconnecting each time\n"
    "                       (default 0 = fail fast)\n"
    "  --retry-base-ms <n>  base backoff before the first retry; doubles\n"
    "                       per attempt, jittered (default 50)\n"
    "  --read-timeout-ms <n> per-response read deadline, 0 = wait forever\n"
    "                       (default 0)\n"
    "  -h, --help           this text\n";

using axc::cli::flag_value;
using axc::cli::require_double;
using axc::cli::require_long;
using axc::cli::usage_error;

axc::arith::FullAdderKind parse_cell(const char* text) {
  const long raw = require_long(kUsage, "--cell", text, 0,
                                axc::arith::kFullAdderKindCount - 1);
  return static_cast<axc::arith::FullAdderKind>(raw);
}

axc::arith::Mul2x2Kind parse_block(const char* text) {
  const std::string name = text;
  if (name == "accurate") return axc::arith::Mul2x2Kind::Accurate;
  if (name == "soa") return axc::arith::Mul2x2Kind::SoA;
  if (name == "ours") return axc::arith::Mul2x2Kind::Ours;
  usage_error(kUsage, "--block must be accurate|soa|ours, got '" + name + "'");
}

void print_characterize(const axc::service::CharacterizeResponse& r) {
  std::printf("area_ge=%.6f power_nw=%.6f gate_count=%llu\n", r.area_ge,
              r.power_nw, static_cast<unsigned long long>(r.gate_count));
}

template <class ClientT>
int run_characterize_adder(ClientT& client, int argc,
                           char** argv, int i) {
  axc::service::CharacterizeAdderRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--family") {
      const std::string name = flag_value(kUsage, argc, argv, i);
      if (name == "gear") {
        req.family = axc::service::AdderFamily::Gear;
      } else if (name == "loa") {
        req.family = axc::service::AdderFamily::Loa;
      } else if (name == "etai") {
        req.family = axc::service::AdderFamily::Etai;
      } else if (name == "ripple") {
        req.family = axc::service::AdderFamily::Ripple;
      } else {
        usage_error(kUsage,
                    "--family must be gear|loa|etai|ripple, got '" + name +
                        "'");
      }
    } else if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 1, 64));
    } else if (arg == "--param-a") {
      req.param_a = static_cast<std::uint32_t>(require_long(
          kUsage, "--param-a", flag_value(kUsage, argc, argv, i), 0, 64));
    } else if (arg == "--param-b") {
      req.param_b = static_cast<std::uint32_t>(require_long(
          kUsage, "--param-b", flag_value(kUsage, argc, argv, i), 0, 64));
    } else if (arg == "--cell") {
      req.cell = parse_cell(flag_value(kUsage, argc, argv, i));
    } else if (arg == "--vectors") {
      req.vectors = static_cast<std::uint64_t>(
          require_long(kUsage, "--vectors", flag_value(kUsage, argc, argv, i),
                       1, 1 << 20));
    } else if (arg == "--seed") {
      req.seed = static_cast<std::uint64_t>(require_long(
          kUsage, "--seed", flag_value(kUsage, argc, argv, i), 0, 1L << 62));
    } else {
      usage_error(kUsage, "unknown characterize-adder argument '" + arg + "'");
    }
  }
  print_characterize(client.characterize_adder(req));
  return 0;
}

template <class ClientT>
int run_characterize_multiplier(ClientT& client, int argc,
                                char** argv, int i) {
  axc::service::CharacterizeMultiplierRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--structure") {
      const std::string name = flag_value(kUsage, argc, argv, i);
      if (name == "recursive") {
        req.structure = axc::service::MultiplierStructure::Recursive;
      } else if (name == "wallace") {
        req.structure = axc::service::MultiplierStructure::Wallace;
      } else {
        usage_error(kUsage, "--structure must be recursive|wallace, got '" +
                                name + "'");
      }
    } else if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 2, 16));
    } else if (arg == "--block") {
      req.block = parse_block(flag_value(kUsage, argc, argv, i));
    } else if (arg == "--cell") {
      req.cell = parse_cell(flag_value(kUsage, argc, argv, i));
    } else if (arg == "--approx-lsbs") {
      req.approx_lsbs = static_cast<std::uint32_t>(
          require_long(kUsage, "--approx-lsbs",
                       flag_value(kUsage, argc, argv, i), 0, 32));
    } else if (arg == "--vectors") {
      req.vectors = static_cast<std::uint64_t>(
          require_long(kUsage, "--vectors", flag_value(kUsage, argc, argv, i),
                       1, 1 << 20));
    } else if (arg == "--seed") {
      req.seed = static_cast<std::uint64_t>(require_long(
          kUsage, "--seed", flag_value(kUsage, argc, argv, i), 0, 1L << 62));
    } else {
      usage_error(kUsage,
                  "unknown characterize-multiplier argument '" + arg + "'");
    }
  }
  print_characterize(client.characterize_multiplier(req));
  return 0;
}

template <class ClientT>
int run_evaluate_error(ClientT& client, int argc, char** argv,
                       int i) {
  axc::service::EvaluateErrorRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--target") {
      const std::string name = flag_value(kUsage, argc, argv, i);
      if (name == "gear") {
        req.target = axc::service::EvalTarget::GearAdder;
      } else if (name == "multiplier") {
        req.target = axc::service::EvalTarget::Multiplier;
      } else {
        usage_error(kUsage,
                    "--target must be gear|multiplier, got '" + name + "'");
      }
    } else if (arg == "--n") {
      req.gear.n = static_cast<unsigned>(require_long(
          kUsage, "--n", flag_value(kUsage, argc, argv, i), 2, 64));
    } else if (arg == "--r") {
      req.gear.r = static_cast<unsigned>(require_long(
          kUsage, "--r", flag_value(kUsage, argc, argv, i), 1, 64));
    } else if (arg == "--p") {
      req.gear.p = static_cast<unsigned>(require_long(
          kUsage, "--p", flag_value(kUsage, argc, argv, i), 0, 64));
    } else if (arg == "--correction") {
      req.correction_iterations = static_cast<std::uint32_t>(require_long(
          kUsage, "--correction", flag_value(kUsage, argc, argv, i), 0, 64));
    } else if (arg == "--mul-width") {
      req.mul_width = static_cast<std::uint32_t>(require_long(
          kUsage, "--mul-width", flag_value(kUsage, argc, argv, i), 2, 16));
    } else if (arg == "--block") {
      req.mul_block = parse_block(flag_value(kUsage, argc, argv, i));
    } else if (arg == "--cell") {
      req.mul_cell = parse_cell(flag_value(kUsage, argc, argv, i));
    } else if (arg == "--approx-lsbs") {
      req.mul_approx_lsbs = static_cast<std::uint32_t>(
          require_long(kUsage, "--approx-lsbs",
                       flag_value(kUsage, argc, argv, i), 0, 32));
    } else if (arg == "--max-exhaustive-bits") {
      req.max_exhaustive_bits = static_cast<std::uint32_t>(
          require_long(kUsage, "--max-exhaustive-bits",
                       flag_value(kUsage, argc, argv, i), 0, 24));
    } else if (arg == "--samples") {
      req.samples = static_cast<std::uint64_t>(
          require_long(kUsage, "--samples", flag_value(kUsage, argc, argv, i),
                       1, 1 << 24));
    } else if (arg == "--seed") {
      req.seed = static_cast<std::uint64_t>(require_long(
          kUsage, "--seed", flag_value(kUsage, argc, argv, i), 0, 1L << 62));
    } else {
      usage_error(kUsage, "unknown evaluate-error argument '" + arg + "'");
    }
  }
  const auto r = client.evaluate_error(req);
  std::printf(
      "samples=%llu error_count=%llu max_error=%llu error_rate=%.6f "
      "med=%.6f nmed=%.8f mred=%.6f mse=%.6f rmse=%.6f exhaustive=%d\n",
      static_cast<unsigned long long>(r.samples),
      static_cast<unsigned long long>(r.error_count),
      static_cast<unsigned long long>(r.max_error), r.error_rate,
      r.mean_error_distance, r.normalized_med, r.mean_relative_error,
      r.mean_squared_error, r.root_mean_squared_error, r.exhaustive ? 1 : 0);
  return 0;
}

template <class ClientT>
int run_gear_design_space(ClientT& client, int argc, char** argv,
                          int i) {
  axc::service::GearDesignSpaceRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 2, 16));
    } else if (arg == "--min-p") {
      req.min_p = static_cast<std::uint32_t>(require_long(
          kUsage, "--min-p", flag_value(kUsage, argc, argv, i), 1, 16));
    } else if (arg == "--include-exact") {
      req.include_exact = true;
    } else if (arg == "--estimate-power") {
      req.estimate_power = true;
    } else if (arg == "--min-accuracy") {
      req.min_accuracy = require_double(
          kUsage, "--min-accuracy", flag_value(kUsage, argc, argv, i), 0.0,
          100.0);
    } else {
      usage_error(kUsage, "unknown gear-design-space argument '" + arg + "'");
    }
  }
  const auto r = client.gear_design_space(req);
  std::printf("points=%zu max_accuracy_index=%u min_area_index=%u\n",
              r.points.size(), r.max_accuracy_index, r.min_area_index);
  for (const auto& p : r.points) {
    std::printf(
        "r=%u p=%u area_ge=%.4f power_nw=%.4f accuracy=%.4f pareto=%d\n", p.r,
        p.p, p.area_ge, p.power_nw, p.accuracy_percent,
        p.on_pareto_front ? 1 : 0);
  }
  return 0;
}

template <class ClientT>
int run_hetero_adder_design_space(ClientT& client, int argc, char** argv,
                                  int i) {
  axc::service::HeteroAdderDesignSpaceRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 2, 32));
    } else if (arg == "--block-width") {
      req.block_width = static_cast<std::uint32_t>(require_long(
          kUsage, "--block-width", flag_value(kUsage, argc, argv, i), 1, 8));
    } else if (arg == "--no-truncated") {
      req.include_truncated = false;
    } else if (arg == "--estimate-power") {
      req.estimate_power = true;
    } else if (arg == "--min-accuracy") {
      req.min_accuracy = require_double(
          kUsage, "--min-accuracy", flag_value(kUsage, argc, argv, i), 0.0,
          100.0);
    } else {
      usage_error(kUsage,
                  "unknown hetero-adder-design-space argument '" + arg + "'");
    }
  }
  const auto r = client.hetero_adder_design_space(req);
  std::printf("points=%zu max_accuracy_index=%u min_area_index=%u\n",
              r.points.size(), r.max_accuracy_index, r.min_area_index);
  for (const auto& p : r.points) {
    std::printf(
        "low_kind=%s approx_blocks=%u area_ge=%.4f power_nw=%.4f "
        "accuracy=%.4f error_rate=%.6f med=%.6f nmed=%.8f wce=%llu "
        "pareto=%d\n",
        axc::designspace::hetero_sub_adder_name(p.low_kind), p.approx_blocks,
        p.area_ge, p.power_nw, p.accuracy_percent, p.error_rate, p.med,
        p.nmed, static_cast<unsigned long long>(p.wce),
        p.on_pareto_front ? 1 : 0);
  }
  return 0;
}

template <class ClientT>
int run_array_mul_design_space(ClientT& client, int argc, char** argv,
                               int i) {
  axc::service::ArrayMulDesignSpaceRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 2, 16));
    } else if (arg == "--max-approx-columns") {
      req.max_approx_columns = static_cast<std::uint32_t>(
          require_long(kUsage, "--max-approx-columns",
                       flag_value(kUsage, argc, argv, i), 0, 32));
    } else if (arg == "--estimate-power") {
      req.estimate_power = true;
    } else if (arg == "--min-accuracy") {
      req.min_accuracy = require_double(
          kUsage, "--min-accuracy", flag_value(kUsage, argc, argv, i), 0.0,
          100.0);
    } else {
      usage_error(kUsage,
                  "unknown array-mul-design-space argument '" + arg + "'");
    }
  }
  const auto r = client.array_mul_design_space(req);
  std::printf("points=%zu max_accuracy_index=%u min_area_index=%u\n",
              r.points.size(), r.max_accuracy_index, r.min_area_index);
  for (const auto& p : r.points) {
    std::printf(
        "compressor=%s approx_columns=%u area_ge=%.4f power_nw=%.4f "
        "accuracy=%.4f error_rate_est=%.6f med_est=%.6f nmed_est=%.8f "
        "model_exact=%d pareto=%d\n",
        axc::designspace::compressor_kind_name(p.compressor),
        p.approx_columns, p.area_ge, p.power_nw, p.accuracy_percent,
        p.error_rate_est, p.med_est, p.nmed_est, p.model_exact ? 1 : 0,
        p.on_pareto_front ? 1 : 0);
  }
  return 0;
}

template <class ClientT>
int run_static_adder_design_space(ClientT& client, int argc, char** argv,
                                  int i) {
  axc::service::StaticAdderDesignSpaceRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      req.width = static_cast<std::uint32_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 2, 32));
    } else if (arg == "--max-approx-lsbs") {
      req.max_approx_lsbs = static_cast<std::uint32_t>(
          require_long(kUsage, "--max-approx-lsbs",
                       flag_value(kUsage, argc, argv, i), 0, 10));
    } else if (arg == "--estimate-power") {
      req.estimate_power = true;
    } else if (arg == "--min-accuracy") {
      req.min_accuracy = require_double(
          kUsage, "--min-accuracy", flag_value(kUsage, argc, argv, i), 0.0,
          100.0);
    } else {
      usage_error(kUsage,
                  "unknown static-adder-design-space argument '" + arg + "'");
    }
  }
  const auto r = client.static_adder_design_space(req);
  std::printf("points=%zu max_accuracy_index=%u min_area_index=%u\n",
              r.points.size(), r.max_accuracy_index, r.min_area_index);
  for (const auto& p : r.points) {
    std::printf(
        "kind=%s approx_lsbs=%u area_ge=%.4f power_nw=%.4f accuracy=%.4f "
        "error_rate=%.6f med=%.6f nmed=%.8f wce=%llu pareto=%d\n",
        axc::designspace::static_adder_kind_name(p.kind), p.approx_lsbs,
        p.area_ge, p.power_nw, p.accuracy_percent, p.error_rate, p.med,
        p.nmed, static_cast<unsigned long long>(p.wce),
        p.on_pareto_front ? 1 : 0);
  }
  return 0;
}

template <class ClientT>
int run_encode_probe(ClientT& client, int argc, char** argv,
                     int i) {
  axc::service::EncodeProbeRequest req;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      req.width = static_cast<std::uint16_t>(require_long(
          kUsage, "--width", flag_value(kUsage, argc, argv, i), 8, 256));
    } else if (arg == "--height") {
      req.height = static_cast<std::uint16_t>(require_long(
          kUsage, "--height", flag_value(kUsage, argc, argv, i), 8, 256));
    } else if (arg == "--frames") {
      req.frames = static_cast<std::uint16_t>(require_long(
          kUsage, "--frames", flag_value(kUsage, argc, argv, i), 1, 32));
    } else if (arg == "--objects") {
      req.objects = static_cast<std::uint16_t>(require_long(
          kUsage, "--objects", flag_value(kUsage, argc, argv, i), 0, 16));
    } else if (arg == "--sequence-seed") {
      req.sequence_seed = static_cast<std::uint64_t>(
          require_long(kUsage, "--sequence-seed",
                       flag_value(kUsage, argc, argv, i), 0, 1L << 62));
    } else if (arg == "--sad-variant") {
      req.sad_variant = static_cast<std::uint8_t>(require_long(
          kUsage, "--sad-variant", flag_value(kUsage, argc, argv, i), 0, 5));
    } else if (arg == "--approx-lsbs") {
      req.approx_lsbs = static_cast<std::uint8_t>(
          require_long(kUsage, "--approx-lsbs",
                       flag_value(kUsage, argc, argv, i), 0, 15));
    } else if (arg == "--block-size") {
      req.block_size = static_cast<std::uint8_t>(require_long(
          kUsage, "--block-size", flag_value(kUsage, argc, argv, i), 4, 64));
    } else if (arg == "--search-range") {
      req.search_range = static_cast<std::uint8_t>(require_long(
          kUsage, "--search-range", flag_value(kUsage, argc, argv, i), 1, 16));
    } else if (arg == "--quant-step") {
      req.quant_step = static_cast<std::uint16_t>(require_long(
          kUsage, "--quant-step", flag_value(kUsage, argc, argv, i), 1, 255));
    } else {
      usage_error(kUsage, "unknown encode-probe argument '" + arg + "'");
    }
  }
  const auto r = client.encode_probe(req);
  std::printf("total_bits=%llu bits_per_frame=%.2f psnr_db=%.4f "
              "sad_calls=%llu\n",
              static_cast<unsigned long long>(r.total_bits), r.bits_per_frame,
              r.psnr_db, static_cast<unsigned long long>(r.sad_calls));
  return 0;
}

int run_pipeline(const std::string& host, std::uint16_t port,
                 axc::service::TcpConnectionOptions options, int argc,
                 char** argv, int i) {
  long count = 8;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--count") {
      count = require_long(kUsage, "--count", flag_value(kUsage, argc, argv, i),
                           1, 1 << 16);
    } else {
      usage_error(kUsage, "unknown pipeline argument '" + arg + "'");
    }
  }
  options.multiplex = true;
  axc::service::TcpConnection connection(host, port, options);
  axc::service::Client client(connection);
  std::vector<std::uint32_t> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (long k = 0; k < count; ++k) ids.push_back(client.submit_ping());
  // Collect newest-first: exercises out-of-order completion routing.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    client.collect_ping(*it);
  }
  std::printf("pipelined=%ld collected=reverse ok\n", count);
  return 0;
}

/// Typed-command dispatch, shared between the single-server
/// RetryingClient and the ring-routing ClusterClient (their typed
/// facades are call-compatible; shutdown exists only on the former).
template <class ClientT>
int run_command(ClientT& client, const std::string& command, int argc,
                char** argv, int i) {
  int rc = 0;
  if (command == "ping") {
    if (i < argc) usage_error(kUsage, "ping takes no arguments");
    client.ping();
    std::printf("pong\n");
  } else if (command == "shutdown") {
    if constexpr (requires { client.shutdown(); }) {
      if (i < argc) usage_error(kUsage, "shutdown takes no arguments");
      client.shutdown();
      std::printf("shutdown acknowledged\n");
    } else {
      usage_error(kUsage,
                  "shutdown is a single-server command (drop --ring and "
                  "point --host/--port at one node)");
    }
  } else if (command == "characterize-adder") {
    rc = run_characterize_adder(client, argc, argv, i);
  } else if (command == "characterize-multiplier") {
    rc = run_characterize_multiplier(client, argc, argv, i);
  } else if (command == "evaluate-error") {
    rc = run_evaluate_error(client, argc, argv, i);
  } else if (command == "gear-design-space") {
    rc = run_gear_design_space(client, argc, argv, i);
  } else if (command == "hetero-adder-design-space") {
    rc = run_hetero_adder_design_space(client, argc, argv, i);
  } else if (command == "array-mul-design-space") {
    rc = run_array_mul_design_space(client, argc, argv, i);
  } else if (command == "static-adder-design-space") {
    rc = run_static_adder_design_space(client, argc, argv, i);
  } else if (command == "encode-probe") {
    rc = run_encode_probe(client, argc, argv, i);
  } else {
    usage_error(kUsage, "unknown command '" + command + "'");
  }
  if (client.last_served_level() > 0) {
    std::fprintf(stderr,
                 "axc_client: note: server degraded this response "
                 "(served_level=%u)\n",
                 static_cast<unsigned>(client.last_served_level()));
  }
  if (client.retries() > 0) {
    std::fprintf(stderr, "axc_client: note: %llu retr%s\n",
                 static_cast<unsigned long long>(client.retries()),
                 client.retries() == 1 ? "y" : "ies");
  }
  if constexpr (requires { client.failovers(); }) {
    if (client.failovers() > 0) {
      std::fprintf(stderr,
                   "axc_client: note: %llu failover%s (dead or draining "
                   "nodes routed around)\n",
                   static_cast<unsigned long long>(client.failovers()),
                   client.failovers() == 1 ? "" : "s");
    }
  }
  return rc;
}

/// One "host:port" per line, line i = ring index i — the same file the
/// servers were started with.
std::vector<axc::service::RetryingClient::ConnectionFactory>
ring_factories(const std::string& path,
               const axc::service::TcpConnectionOptions& options) {
  std::ifstream in(path);
  if (!in) usage_error(kUsage, "--ring: cannot open '" + path + "'");
  std::vector<axc::service::RetryingClient::ConnectionFactory> factories;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t colon = line.rfind(':');
    const long port =
        colon == std::string::npos || colon + 1 >= line.size()
            ? 0
            : std::strtol(line.c_str() + colon + 1, nullptr, 10);
    if (port < 1 || port > 65535) {
      usage_error(kUsage, "--ring: bad line '" + line +
                              "' in '" + path + "' (want host:port)");
    }
    const std::string host = line.substr(0, colon);
    factories.push_back([host, port, options] {
      return std::make_unique<axc::service::TcpConnection>(
          host, static_cast<std::uint16_t>(port), options);
    });
  }
  if (factories.empty()) {
    usage_error(kUsage, "--ring: '" + path + "' lists no nodes");
  }
  return factories;
}

int run_hold(const std::string& host, std::uint16_t port,
             const axc::service::TcpConnectionOptions& options, int argc,
             char** argv, int i) {
  long connections = 64;
  long hold_ms = 1000;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connections") {
      connections = require_long(kUsage, "--connections",
                                 flag_value(kUsage, argc, argv, i), 1, 4096);
    } else if (arg == "--hold-ms") {
      hold_ms = require_long(kUsage, "--hold-ms",
                             flag_value(kUsage, argc, argv, i), 0, 600000);
    } else {
      usage_error(kUsage, "unknown hold argument '" + arg + "'");
    }
  }
  std::vector<std::unique_ptr<axc::service::TcpConnection>> held;
  held.reserve(static_cast<std::size_t>(connections));
  for (long k = 0; k < connections; ++k) {
    held.push_back(
        std::make_unique<axc::service::TcpConnection>(host, port, options));
  }
  axc::service::Client(*held.front()).ping();
  axc::service::Client(*held.back()).ping();
  std::printf("holding=%ld for %ldms\n", connections, hold_ms);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  axc::service::Client(*held.front()).ping();
  std::printf("held=%ld ok\n", connections);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axc;

  if (cli::wants_help(argc, argv)) {
    cli::print_usage(kUsage);
    return 0;
  }

  std::string host = "127.0.0.1";
  std::string ring_file;
  long port = -1;
  long deadline_ms = 0;
  long retries = 0;
  long retry_base_ms = 50;
  long read_timeout_ms = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      host = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--port") {
      port = require_long(kUsage, "--port", flag_value(kUsage, argc, argv, i),
                          1, 65535);
    } else if (arg == "--ring") {
      ring_file = flag_value(kUsage, argc, argv, i);
    } else if (arg == "--deadline-ms") {
      deadline_ms = require_long(kUsage, "--deadline-ms",
                                 flag_value(kUsage, argc, argv, i), 0,
                                 1L << 31);
    } else if (arg == "--retries") {
      retries = require_long(kUsage, "--retries",
                             flag_value(kUsage, argc, argv, i), 0, 100);
    } else if (arg == "--retry-base-ms") {
      retry_base_ms = require_long(kUsage, "--retry-base-ms",
                                   flag_value(kUsage, argc, argv, i), 1,
                                   60000);
    } else if (arg == "--read-timeout-ms") {
      read_timeout_ms = require_long(kUsage, "--read-timeout-ms",
                                     flag_value(kUsage, argc, argv, i), 0,
                                     1L << 31);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error(kUsage, "unknown global option '" + arg + "'");
    } else {
      break;  // first non-flag token = command
    }
  }
  if (i >= argc) usage_error(kUsage, "missing command");
  if (ring_file.empty() && port < 0) {
    usage_error(kUsage, "--port is required (or --ring)");
  }
  if (!ring_file.empty() && port >= 0) {
    usage_error(kUsage, "--port and --ring are mutually exclusive");
  }
  const std::string command = argv[i++];

  try {
    // Reconnect-on-retry: the factory dials a fresh TCP connection for
    // every attempt that follows a transport failure, so the client can
    // out-wait a server restart (scripts/service_smoke.sh exercises this).
    service::TcpConnectionOptions connection_options;
    connection_options.read_timeout_ms =
        static_cast<std::uint32_t>(read_timeout_ms);

    // Transport-level commands drive raw connections, not RetryingClient.
    if (command == "pipeline" || command == "hold") {
      if (!ring_file.empty()) {
        usage_error(kUsage, command +
                                " drives one raw connection and has no "
                                "ring mode (drop --ring)");
      }
      if (command == "pipeline") {
        return run_pipeline(host, static_cast<std::uint16_t>(port),
                            connection_options, argc, argv, i);
      }
      return run_hold(host, static_cast<std::uint16_t>(port),
                      connection_options, argc, argv, i);
    }

    service::RetryPolicy policy;
    policy.max_attempts = 1 + static_cast<unsigned>(retries);
    policy.base_backoff_ms = static_cast<std::uint32_t>(retry_base_ms);
    policy.max_backoff_ms =
        static_cast<std::uint32_t>(std::min(32 * retry_base_ms, 60000L));

    if (!ring_file.empty()) {
      cluster::ClusterClientOptions options;
      options.retry = policy;
      options.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
      cluster::ClusterClient client(
          ring_factories(ring_file, connection_options), options);
      return run_command(client, command, argc, argv, i);
    }

    service::RetryingClient client(
        [host, port, connection_options] {
          return std::make_unique<service::TcpConnection>(
              host, static_cast<std::uint16_t>(port), connection_options);
        },
        policy);
    client.set_deadline_ms(static_cast<std::uint32_t>(deadline_ms));
    return run_command(client, command, argc, argv, i);
  } catch (const service::ServiceError& e) {
    std::fprintf(stderr, "axc_client: %s: %s\n",
                 std::string(service::status_name(e.status())).c_str(),
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axc_client: error: %s\n", e.what());
    return 1;
  }
}
