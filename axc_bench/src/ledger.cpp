// The layer-by-layer ledger of a trace run.
//
// The served handlers are opaque from outside, so the ledger replays the
// same computation through the library layers' public functions with
// bench-owned spans around each call. Each request runs twice, each time
// from cleared process caches and in alternating order:
//
//   dispatch  service::dispatch(), timed — the reference bytes and the
//             denominator of trace.coverage;
//   replay    the handler's steps, one span per layer call; every result
//             must equal the fields of the dispatch() response, which is
//             what guarantees the spans time the computation the server
//             runs.
//
// Running the pair back to back keeps slow drifts of a shared host out of
// the coverage ratio.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "axc/accel/sad.hpp"
#include "axc/arith/adder.hpp"
#include "axc/arith/multiplier.hpp"
#include "axc/core/explorer.hpp"
#include "axc/designspace/explorer.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/tape.hpp"
#include "axc/service/cache.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/video/encoder.hpp"
#include "axc/video/sequence.hpp"
#include "bench.hpp"

namespace axc_bench {

namespace svc = axc::service;
namespace logic = axc::logic;
namespace video = axc::video;
namespace accel = axc::accel;

namespace {

/// Scoped span in the ledger's log.
class Scope {
 public:
  Scope(TraceLog& log, const char* name, std::int64_t request,
        std::int64_t parent)
      : log_(log), id_(log.open(name, request, parent)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  TraceLog& log_;
  std::int64_t id_;
};

/// Forwards to the served SAD accelerator and records one span per
/// sad_batch call under the current inter-frame span.
class TimedSad final : public accel::SadUnit {
 public:
  TimedSad(const accel::SadUnit& inner, TraceLog& log, std::int64_t request)
      : inner_(inner), log_(log), request_(request) {}

  unsigned block_pixels() const override { return inner_.block_pixels(); }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override {
    return inner_.sad(a, b);
  }
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override {
    const std::int64_t start = now_ns();
    inner_.sad_batch(a, candidates, out);
    log_.add({"accel.sad_batch", start, now_ns(), parent_, request_});
    candidates_ += out.size();
  }
  std::string name() const override { return inner_.name(); }
  bool is_exact() const override { return inner_.is_exact(); }

  void set_parent(std::int64_t parent) { parent_ = parent; }
  std::uint64_t candidates() const { return candidates_; }

 private:
  const accel::SadUnit& inner_;
  TraceLog& log_;
  std::int64_t request_;
  std::int64_t parent_ = -1;
  mutable std::uint64_t candidates_ = 0;
};

/// Work counts the rate metrics divide by.
struct Work {
  std::uint64_t candidates = 0;
  std::uint64_t encode_requests = 0;
  double gate_vectors = 0.0;  ///< sum of gate_count x vectors
  std::uint64_t samples = 0;  ///< error-evaluation inputs
  double compile_miss_ms = 0.0;
  std::uint64_t compile_misses = 0;
};

struct Context {
  TraceLog& log;
  Work& work;
  std::int64_t request;
};

std::string mismatch(std::string_view endpoint, std::string_view field) {
  return std::string(endpoint) + ": replayed " + std::string(field) +
         " differs from dispatch()";
}

std::string replay_characterization(Context& ctx, std::int64_t root,
                                    const logic::Netlist& netlist,
                                    std::uint64_t vectors, std::uint64_t seed,
                                    const svc::CharacterizeResponse& expected,
                                    std::string_view endpoint) {
  const std::uint64_t misses = logic::compile_cache_stats().misses;
  const std::int64_t start = now_ns();
  logic::compile_netlist(netlist);
  const std::int64_t end = now_ns();
  ctx.log.add({"logic.compile", start, end, root, ctx.request});
  if (logic::compile_cache_stats().misses != misses) {
    ctx.work.compile_miss_ms += static_cast<double>(end - start) / 1e6;
    ++ctx.work.compile_misses;
  }
  logic::Characterization c;
  {
    const Scope span(ctx.log, "logic.characterize", ctx.request, root);
    c = logic::characterize(netlist, std::nullopt, vectors, seed);
  }
  ctx.work.gate_vectors +=
      static_cast<double>(c.gate_count) * static_cast<double>(vectors);
  if (c.area_ge != expected.area_ge) return mismatch(endpoint, "area_ge");
  if (c.power_nw != expected.power_nw) return mismatch(endpoint, "power_nw");
  if (c.gate_count != expected.gate_count) {
    return mismatch(endpoint, "gate_count");
  }
  return {};
}

std::string replay_characterize_adder(Context& ctx, std::int64_t root,
                                      std::span<const std::uint8_t> body,
                                      std::span<const std::uint8_t> response) {
  const auto request = svc::decode_characterize_adder(body);
  logic::Netlist netlist;
  {
    const Scope span(ctx.log, "logic.netlist_build", ctx.request, root);
    switch (request.family) {
      case svc::AdderFamily::Gear:
        netlist = logic::gear_adder_netlist(
            {request.width, request.param_a, request.param_b});
        break;
      case svc::AdderFamily::Loa:
        netlist = logic::loa_adder_netlist(request.width, request.param_a);
        break;
      case svc::AdderFamily::Etai:
        netlist = logic::etai_adder_netlist(request.width, request.param_a);
        break;
      case svc::AdderFamily::Ripple:
        netlist = logic::ripple_adder_netlist(
            axc::arith::RippleAdder::lsb_approximated(
                request.width, request.cell, request.param_a)
                .cells());
        break;
    }
  }
  return replay_characterization(ctx, root, netlist, request.vectors,
                                 request.seed,
                                 svc::decode_characterize_response(response),
                                 "characterize_adder");
}

std::string replay_characterize_multiplier(
    Context& ctx, std::int64_t root, std::span<const std::uint8_t> body,
    std::span<const std::uint8_t> response) {
  const auto request = svc::decode_characterize_multiplier(body);
  logic::Netlist netlist;
  {
    const Scope span(ctx.log, "logic.netlist_build", ctx.request, root);
    if (request.structure == svc::MultiplierStructure::Recursive) {
      logic::MulNetlistSpec spec;
      spec.width = request.width;
      spec.block = request.block;
      spec.adder_cell = request.cell;
      spec.approx_lsbs = request.approx_lsbs;
      netlist = logic::multiplier_netlist(spec);
    } else {
      netlist = logic::wallace_netlist(request.width, request.cell,
                                       request.approx_lsbs);
    }
  }
  return replay_characterization(ctx, root, netlist, request.vectors,
                                 request.seed,
                                 svc::decode_characterize_response(response),
                                 "characterize_multiplier");
}

std::string replay_evaluate_error(Context& ctx, std::int64_t root,
                                  std::span<const std::uint8_t> body,
                                  std::span<const std::uint8_t> response) {
  const auto request = svc::decode_evaluate_error(body);
  axc::error::EvalOptions eval;
  eval.max_exhaustive_bits = request.max_exhaustive_bits;
  eval.samples = request.samples;
  eval.seed = request.seed;
  eval.threads = 1;
  axc::error::ErrorStats stats;
  if (request.target == svc::EvalTarget::GearAdder) {
    std::optional<axc::arith::GeArAdder> adder;
    {
      const Scope span(ctx.log, "arith.model_build", ctx.request, root);
      adder.emplace(request.gear, request.correction_iterations);
    }
    const Scope span(ctx.log, "error.evaluate_adder", ctx.request, root);
    stats = axc::error::evaluate_adder(*adder, eval);
  } else {
    axc::arith::MultiplierConfig config;
    config.width = request.mul_width;
    config.block = request.mul_block;
    config.adder_cell = request.mul_cell;
    config.approx_lsbs = request.mul_approx_lsbs;
    std::optional<axc::arith::ApproxMultiplier> multiplier;
    {
      const Scope span(ctx.log, "arith.model_build", ctx.request, root);
      multiplier.emplace(config);
    }
    const Scope span(ctx.log, "error.evaluate_multiplier", ctx.request, root);
    stats = axc::error::evaluate_multiplier(*multiplier, eval);
  }
  ctx.work.samples += stats.samples;
  const auto expected = svc::decode_evaluate_error_response(response);
  const bool same =
      stats.samples == expected.samples &&
      stats.error_count == expected.error_count &&
      stats.max_error == expected.max_error &&
      stats.error_rate == expected.error_rate &&
      stats.mean_error_distance == expected.mean_error_distance &&
      stats.normalized_med == expected.normalized_med &&
      stats.mean_relative_error == expected.mean_relative_error &&
      stats.mean_squared_error == expected.mean_squared_error &&
      stats.root_mean_squared_error == expected.root_mean_squared_error &&
      stats.exhaustive == expected.exhaustive;
  return same ? std::string{} : mismatch("evaluate_error", "ErrorStats");
}

/// Compares the explorer's points with the response's, field by field.
template <class Entries, class Points, class Same>
std::string compare_points(const Entries& entries, const Points& points,
                           std::string_view endpoint, Same same) {
  if (entries.size() != points.size()) return mismatch(endpoint, "size");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const auto& p = points[i];
    if (e.point.area_ge != p.area_ge || e.point.power_nw != p.power_nw ||
        e.point.accuracy_percent != p.accuracy_percent || !same(e, p)) {
      return mismatch(endpoint, "point " + std::to_string(i));
    }
  }
  return {};
}

std::string replay_gear_space(Context& ctx, std::int64_t root,
                              std::span<const std::uint8_t> body,
                              std::span<const std::uint8_t> response) {
  const auto request = svc::decode_gear_design_space(body);
  axc::core::ExploreOptions explore;
  explore.min_p = request.min_p;
  explore.include_exact = request.include_exact;
  explore.estimate_power = request.estimate_power;
  std::vector<axc::core::GearDesignPoint> space;
  {
    const Scope span(ctx.log, "core.explore_gear_space", ctx.request, root);
    space = axc::core::explore_gear_space(request.width, explore);
  }
  return compare_points(
      space, svc::decode_gear_design_space_response(response).points,
      "gear_design_space", [](const auto& e, const auto& p) {
        return e.config.r == p.r && e.config.p == p.p;
      });
}

std::string replay_hetero_space(Context& ctx, std::int64_t root,
                                std::span<const std::uint8_t> body,
                                std::span<const std::uint8_t> response) {
  const auto request = svc::decode_hetero_adder_design_space(body);
  axc::designspace::SweepOptions sweep;
  sweep.estimate_power = request.estimate_power;
  std::vector<axc::designspace::HeteroEntry> space;
  {
    const Scope span(ctx.log, "designspace.explore_hetero_space", ctx.request,
                     root);
    space = axc::designspace::explore_hetero_space(
        request.width, request.block_width, request.include_truncated, sweep);
  }
  return compare_points(
      space, svc::decode_hetero_adder_design_space_response(response).points,
      "hetero_adder_design_space", [](const auto& e, const auto& p) {
        return e.low_kind == p.low_kind && e.approx_blocks == p.approx_blocks &&
               e.model.error_rate == p.error_rate && e.model.med == p.med &&
               e.model.nmed == p.nmed && e.model.wce == p.wce;
      });
}

std::string replay_array_mul_space(Context& ctx, std::int64_t root,
                                   std::span<const std::uint8_t> body,
                                   std::span<const std::uint8_t> response) {
  const auto request = svc::decode_array_mul_design_space(body);
  axc::designspace::SweepOptions sweep;
  sweep.estimate_power = request.estimate_power;
  std::vector<axc::designspace::MulEntry> space;
  {
    const Scope span(ctx.log, "designspace.explore_compressor_mul_space",
                     ctx.request, root);
    space = axc::designspace::explore_compressor_mul_space(
        request.width, request.max_approx_columns, sweep);
  }
  return compare_points(
      space, svc::decode_array_mul_design_space_response(response).points,
      "array_mul_design_space", [](const auto& e, const auto& p) {
        return e.kind == p.compressor &&
               e.approx_columns == p.approx_columns &&
               e.model.error_rate_est == p.error_rate_est &&
               e.model.med_est == p.med_est &&
               e.model.nmed_est == p.nmed_est && e.model.exact == p.model_exact;
      });
}

std::string replay_static_space(Context& ctx, std::int64_t root,
                                std::span<const std::uint8_t> body,
                                std::span<const std::uint8_t> response) {
  const auto request = svc::decode_static_adder_design_space(body);
  axc::designspace::SweepOptions sweep;
  sweep.estimate_power = request.estimate_power;
  std::vector<axc::designspace::StaticEntry> space;
  {
    const Scope span(ctx.log, "designspace.explore_static_adder_space",
                     ctx.request, root);
    space = axc::designspace::explore_static_adder_space(
        request.width, request.max_approx_lsbs, sweep);
  }
  return compare_points(
      space, svc::decode_static_adder_design_space_response(response).points,
      "static_adder_design_space", [](const auto& e, const auto& p) {
        return e.kind == p.kind && e.approx_lsbs == p.approx_lsbs &&
               e.model.error_rate == p.error_rate && e.model.med == p.med &&
               e.model.nmed == p.nmed && e.model.wce == p.wce;
      });
}

/// Drives the frames exactly as video::Encoder::encode does, one span per
/// frame call, with the accelerator wrapped in TimedSad.
std::string replay_encode_probe(Context& ctx, std::int64_t root,
                                std::span<const std::uint8_t> body,
                                std::span<const std::uint8_t> response) {
  const auto request = svc::decode_encode_probe(body);
  video::SequenceConfig sc;
  sc.width = request.width;
  sc.height = request.height;
  sc.frames = request.frames;
  sc.objects = request.objects;
  sc.seed = request.sequence_seed;
  video::Sequence sequence;
  {
    const Scope span(ctx.log, "video.generate_sequence", ctx.request, root);
    sequence = video::generate_sequence(sc);
  }
  const unsigned block_pixels =
      static_cast<unsigned>(request.block_size) * request.block_size;
  std::optional<accel::SadAccelerator> sad;
  {
    const Scope span(ctx.log, "accel.sad_build", ctx.request, root);
    sad.emplace(request.sad_variant == 0
                    ? accel::accu_sad(block_pixels)
                    : accel::apx_sad_variant(request.sad_variant,
                                             request.approx_lsbs,
                                             block_pixels));
  }
  video::EncoderConfig ec;
  ec.motion.block_size = request.block_size;
  ec.motion.search_range = request.search_range;
  ec.quant_step = request.quant_step;
  ec.threads = 1;
  TimedSad timed(*sad, ctx.log, ctx.request);

  video::EncodeStats stats;
  double mse_sum = 0.0;
  std::uint64_t mse_pixels = 0;
  video::FrameResult frame;
  {
    const Scope span(ctx.log, "video.encode_intra_frame", ctx.request, root);
    frame = video::encode_intra_frame(ec, sequence.front());
  }
  stats.total_bits += frame.bits;
  for (std::size_t f = 1; f < sequence.size(); ++f) {
    const axc::image::Image& current = sequence[f];
    video::FrameResult next;
    {
      const Scope span(ctx.log, "video.encode_inter_frame", ctx.request,
                       root);
      timed.set_parent(span.id());
      next = video::encode_inter_frame(ec, timed, current,
                                       frame.reconstruction);
    }
    stats.total_bits += next.bits;
    stats.sad_calls += next.sad_calls;
    {
      const Scope span(ctx.log, "video.frame_mse", ctx.request, root);
      mse_sum += axc::image::image_mse(current, next.reconstruction) *
                 static_cast<double>(current.width()) * current.height();
    }
    mse_pixels +=
        static_cast<std::uint64_t>(current.width()) * current.height();
    frame = std::move(next);
  }
  stats.bits_per_frame =
      static_cast<double>(stats.total_bits) / sequence.size();
  const double mse = mse_sum / static_cast<double>(mse_pixels);
  stats.psnr_db = mse == 0.0 ? std::numeric_limits<double>::infinity()
                             : 10.0 * std::log10(255.0 * 255.0 / mse);
  ctx.work.candidates += timed.candidates();
  ++ctx.work.encode_requests;

  const auto expected = svc::decode_encode_probe_response(response);
  const bool same = stats.total_bits == expected.total_bits &&
                    stats.bits_per_frame == expected.bits_per_frame &&
                    stats.psnr_db == expected.psnr_db &&
                    stats.sad_calls == expected.sad_calls;
  return same ? std::string{} : mismatch("encode_probe", "EncodeStats");
}

const char* root_span_name(svc::Endpoint endpoint) {
  switch (endpoint) {
    case svc::Endpoint::CharacterizeAdder:
      return "replay.characterize_adder";
    case svc::Endpoint::CharacterizeMultiplier:
      return "replay.characterize_multiplier";
    case svc::Endpoint::EvaluateError:
      return "replay.evaluate_error";
    case svc::Endpoint::GearDesignSpace:
      return "replay.gear_design_space";
    case svc::Endpoint::HeteroAdderDesignSpace:
      return "replay.hetero_adder_design_space";
    case svc::Endpoint::ArrayMulDesignSpace:
      return "replay.array_mul_design_space";
    case svc::Endpoint::StaticAdderDesignSpace:
      return "replay.static_adder_design_space";
    case svc::Endpoint::EncodeProbe:
      return "replay.encode_probe";
    default:
      return "replay.unknown";
  }
}

std::string replay(Context& ctx, std::span<const std::uint8_t> request,
                   std::span<const std::uint8_t> response) {
  const auto header = svc::parse_request_header(request);
  if (!header) return "replay: unparseable request";
  const auto body = request.subspan(svc::kRequestHeaderBytes);
  const Scope root(ctx.log, root_span_name(header->endpoint), ctx.request,
                   -1);
  switch (header->endpoint) {
    case svc::Endpoint::CharacterizeAdder:
      return replay_characterize_adder(ctx, root.id(), body, response);
    case svc::Endpoint::CharacterizeMultiplier:
      return replay_characterize_multiplier(ctx, root.id(), body, response);
    case svc::Endpoint::EvaluateError:
      return replay_evaluate_error(ctx, root.id(), body, response);
    case svc::Endpoint::GearDesignSpace:
      return replay_gear_space(ctx, root.id(), body, response);
    case svc::Endpoint::HeteroAdderDesignSpace:
      return replay_hetero_space(ctx, root.id(), body, response);
    case svc::Endpoint::ArrayMulDesignSpace:
      return replay_array_mul_space(ctx, root.id(), body, response);
    case svc::Endpoint::StaticAdderDesignSpace:
      return replay_static_space(ctx, root.id(), body, response);
    case svc::Endpoint::EncodeProbe:
      return replay_encode_probe(ctx, root.id(), body, response);
    default:
      return "replay: endpoint " +
             std::string(svc::endpoint_name(header->endpoint)) +
             " is not replayed";
  }
}

svc::Bytes dispatch_once(std::span<const std::uint8_t> request) {
  svc::DispatchOptions options;
  options.eval_threads = 1;
  return svc::dispatch(request, options);
}

double span_ms(const SpanRecord& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

/// Median over \p passes of the mean nanoseconds per call of \p op over
/// \p count items.
double ns_per_item(std::size_t passes, std::size_t count,
                   const std::function<void(std::size_t)>& op) {
  std::vector<double> per_pass;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < count; ++i) op(i);
    per_pass.push_back(static_cast<double>(now_ns() - start) /
                       static_cast<double>(count));
  }
  return median(per_pass);
}

/// Encode request + decode body + encode response of one typed pair.
template <class Request, class Response, class Decode>
std::function<std::size_t()> codec_case(std::span<const std::uint8_t> body,
                                        Decode decode,
                                        const Response& response) {
  const Request request = decode(body);
  return [request, response, decode] {
    const svc::Bytes wire = svc::encode_request(request);
    const Request back = decode(
        std::span<const std::uint8_t>(wire).subspan(svc::kRequestHeaderBytes));
    return wire.size() + svc::encode_response(response).size() +
           sizeof(back);
  };
}

std::function<std::size_t()> codec_for(std::span<const std::uint8_t> request,
                                       std::span<const std::uint8_t> response) {
  const auto body = request.subspan(svc::kRequestHeaderBytes);
  switch (svc::parse_request_header(request)->endpoint) {
    case svc::Endpoint::CharacterizeAdder:
      return codec_case<svc::CharacterizeAdderRequest>(
          body, svc::decode_characterize_adder,
          svc::decode_characterize_response(response));
    case svc::Endpoint::CharacterizeMultiplier:
      return codec_case<svc::CharacterizeMultiplierRequest>(
          body, svc::decode_characterize_multiplier,
          svc::decode_characterize_response(response));
    case svc::Endpoint::EvaluateError:
      return codec_case<svc::EvaluateErrorRequest>(
          body, svc::decode_evaluate_error,
          svc::decode_evaluate_error_response(response));
    case svc::Endpoint::GearDesignSpace:
      return codec_case<svc::GearDesignSpaceRequest>(
          body, svc::decode_gear_design_space,
          svc::decode_gear_design_space_response(response));
    case svc::Endpoint::HeteroAdderDesignSpace:
      return codec_case<svc::HeteroAdderDesignSpaceRequest>(
          body, svc::decode_hetero_adder_design_space,
          svc::decode_hetero_adder_design_space_response(response));
    case svc::Endpoint::ArrayMulDesignSpace:
      return codec_case<svc::ArrayMulDesignSpaceRequest>(
          body, svc::decode_array_mul_design_space,
          svc::decode_array_mul_design_space_response(response));
    case svc::Endpoint::StaticAdderDesignSpace:
      return codec_case<svc::StaticAdderDesignSpaceRequest>(
          body, svc::decode_static_adder_design_space,
          svc::decode_static_adder_design_space_response(response));
    default:
      return codec_case<svc::EncodeProbeRequest>(
          body, svc::decode_encode_probe,
          svc::decode_encode_probe_response(response));
  }
}

/// service.hit_path.ns and service.protocol.codec_ns over the cache_hot
/// pool: the steps a cache hit and a codec round trip take, in isolation.
void service_replays(std::uint64_t seed, Report& metrics,
                     std::vector<std::string>& problems) {
  const std::vector<Bytes> pool = hot_pool(seed);
  svc::ResultCache cache(1024);
  std::vector<std::function<std::size_t()>> codecs;
  for (const Bytes& request : pool) {
    const Bytes response = dispatch_once(request);
    if (svc::response_status(response) != svc::Status::Ok) {
      problems.push_back("ledger: cache_hot pool request failed");
      return;
    }
    const Bytes canonical = svc::canonical_request_bytes(request);
    cache.insert(svc::canonical_request_key(canonical), canonical, response);
    codecs.push_back(codec_for(request, response));
  }
  std::size_t sink = 0;
  const double hit_ns = ns_per_item(50, pool.size(), [&](std::size_t i) {
    const Bytes canonical = svc::canonical_request_bytes(pool[i]);
    const auto hit =
        cache.lookup(svc::canonical_request_key(canonical), canonical);
    sink += hit ? hit->size() : 0;
  });
  const double codec_ns = ns_per_item(
      50, codecs.size(), [&](std::size_t i) { sink += codecs[i](); });
  if (sink == 0) problems.push_back("ledger: pool replays produced nothing");
  metrics.add("service.hit_path.ns", hit_ns, "ns", pool.size());
  metrics.add("service.protocol.codec_ns", codec_ns, "ns", pool.size());
}

}  // namespace

void run_ledger(std::uint64_t seed, std::size_t per_workload, Report& metrics,
                TraceLog& log, std::vector<std::string>& problems) {
  struct Item {
    Workload workload;
    Bytes request;
    double dispatch_ms = 0.0;
  };
  std::vector<Item> items;
  for (const Workload workload : kColdWorkloads) {
    for (std::uint64_t i = 0; i < per_workload; ++i) {
      items.push_back({workload, cold_request(workload, seed, i), 0.0});
    }
  }

  Work work;
  const std::size_t first_span = log.spans().size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    Bytes response;
    std::string problem;
    const auto dispatch_timed = [&] {
      clear_process_caches();
      const std::int64_t start = now_ns();
      const Bytes timed = dispatch_once(item.request);
      item.dispatch_ms = static_cast<double>(now_ns() - start) / 1e6;
      if (timed != response) problem = "dispatch() is not deterministic";
    };
    const auto replay_traced = [&] {
      clear_process_caches();
      Context ctx{log, work, static_cast<std::int64_t>(i)};
      try {
        std::string mismatch = replay(ctx, item.request, response);
        if (!mismatch.empty()) problem = std::move(mismatch);
      } catch (const std::exception& e) {
        problem = std::string("replay threw: ") + e.what();
      }
    };
    // An untimed dispatch() first gives the replay its reference bytes
    // and warms both timed runs alike; their order then alternates.
    clear_process_caches();
    response = dispatch_once(item.request);
    if (i % 2 == 0) {
      dispatch_timed();
      replay_traced();
    } else {
      replay_traced();
      dispatch_timed();
    }
    if (svc::response_status(response) != svc::Status::Ok) {
      problem = "dispatch() failed";
    }
    if (!problem.empty()) {
      problems.push_back("ledger: " + std::string(workload_name(
                                          item.workload)) +
                         " request " + std::to_string(i) + ": " + problem);
    }
  }

  // Durations by span name; sad_batch time under each inter frame; the
  // time of each request's top-level layer calls (children of a root).
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::int64_t, double> sad_under;
  std::vector<double> covered(items.size(), 0.0);
  const auto& spans = log.spans();
  for (std::size_t s = first_span; s < spans.size(); ++s) {
    const SpanRecord& span = spans[s];
    by_name[span.name].push_back(span_ms(span));
    if (std::string_view(span.name) == "accel.sad_batch") {
      sad_under[span.parent] += span_ms(span);
    }
    if (span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].parent == -1) {
      covered[static_cast<std::size_t>(span.request)] += span_ms(span);
    }
  }
  std::vector<double> inter_self;
  for (std::size_t s = first_span; s < spans.size(); ++s) {
    if (std::string_view(spans[s].name) == "video.encode_inter_frame") {
      inter_self.push_back(span_ms(spans[s]) -
                           sad_under[static_cast<std::int64_t>(s)]);
    }
  }
  const auto p50 = [&](const char* name) {
    return median(by_name[name]);
  };
  const auto count = [&](const char* name) {
    return static_cast<std::uint64_t>(by_name[name].size());
  };
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (const double ms : by_name[name]) sum += ms;
    return sum;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  double encode_dispatch_ms = 0.0;
  double coverage = std::numeric_limits<double>::infinity();
  for (const Workload workload : kColdWorkloads) {
    double dispatched = 0.0;
    double attributed = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].workload != workload) continue;
      dispatched += items[i].dispatch_ms;
      attributed += covered[i];
    }
    if (workload == Workload::EncodeCold) encode_dispatch_ms = dispatched;
    const double share = ratio(attributed, dispatched);
    coverage = std::min(coverage, share);
    if (share < 0.90) {
      problems.push_back("ledger: trace.coverage " + std::to_string(share) +
                         " < 0.90 on " + std::string(workload_name(workload)));
    }
  }

  const double sad_ms = total("accel.sad_batch");
  metrics.add("video.generate_sequence.ms", p50("video.generate_sequence"),
              "ms", count("video.generate_sequence"));
  metrics.add("video.encode_intra_frame.ms", p50("video.encode_intra_frame"),
              "ms", count("video.encode_intra_frame"));
  metrics.add("video.encode_inter_frame.self_ms", median(inter_self), "ms",
              inter_self.size());
  metrics.add("accel.sad_batch.ns_per_candidate",
              ratio(sad_ms * 1e6, static_cast<double>(work.candidates)), "ns",
              work.candidates);
  metrics.add("accel.sad_batch.share", ratio(sad_ms, encode_dispatch_ms),
              "ratio", count("accel.sad_batch"));
  metrics.add("accel.sad_batch.candidates_per_req",
              ratio(static_cast<double>(work.candidates),
                    static_cast<double>(work.encode_requests)),
              "count", work.encode_requests);
  metrics.add("logic.netlist_build.ms", p50("logic.netlist_build"), "ms",
              count("logic.netlist_build"));
  metrics.add("logic.compile.ms_per_miss",
              ratio(work.compile_miss_ms,
                    static_cast<double>(work.compile_misses)),
              "ms", work.compile_misses);
  metrics.add("logic.characterize.ms", p50("logic.characterize"), "ms",
              count("logic.characterize"));
  metrics.add("logic.characterize.gate_vectors_per_us",
              ratio(work.gate_vectors, total("logic.characterize") * 1e3),
              "gatevec/us", count("logic.characterize"));
  for (const char* explorer :
       {"core.explore_gear_space", "designspace.explore_hetero_space",
        "designspace.explore_compressor_mul_space",
        "designspace.explore_static_adder_space"}) {
    metrics.add(std::string(explorer) + ".ms", p50(explorer), "ms",
                count(explorer));
  }
  metrics.add("arith.model_build.ms", p50("arith.model_build"), "ms",
              count("arith.model_build"));
  metrics.add("error.evaluate_adder.ms", p50("error.evaluate_adder"), "ms",
              count("error.evaluate_adder"));
  metrics.add("error.evaluate_multiplier.ms", p50("error.evaluate_multiplier"),
              "ms", count("error.evaluate_multiplier"));
  metrics.add("error.samples_per_s",
              ratio(static_cast<double>(work.samples) * 1e3,
                    total("error.evaluate_adder") +
                        total("error.evaluate_multiplier")),
              "1/s", work.samples);
  metrics.add("trace.coverage", coverage, "ratio", items.size());
  service_replays(seed, metrics, problems);
}

}  // namespace axc_bench
