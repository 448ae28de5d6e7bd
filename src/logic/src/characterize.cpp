#include "axc/logic/characterize.hpp"

#include <algorithm>
#include <bit>
#include <list>
#include <mutex>
#include <unordered_map>

#include "axc/common/require.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

/// Mirrors the memo's internal hit/miss tally into the obs registry (the
/// report writer derives logic.characterize_cache.hit_rate from the pair).
void count_cache_probe(bool hit) {
  static obs::Counter& hits = obs::counter("logic.characterize_cache.hits");
  static obs::Counter& misses =
      obs::counter("logic.characterize_cache.misses");
  (hit ? hits : misses).add();
}

/// characterize()'s records, least recently used evicted beyond
/// kCharacterizationRecordCap. Their keys include the caller's seed, so
/// unlike the structure-keyed maps they grow with served traffic.
struct RecordLru {
  using Entry = std::pair<std::uint64_t, Characterization>;
  std::list<Entry> lru;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;

  const Characterization* find(std::uint64_t key) {
    const auto it = index.find(key);
    if (it == index.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    return &it->second->second;
  }

  /// Keeps an entry another thread interned first, as emplace() would.
  const Characterization& insert(std::uint64_t key, Characterization value) {
    if (const Characterization* existing = find(key)) return *existing;
    lru.emplace_front(key, std::move(value));
    index.emplace(key, lru.begin());
    if (lru.size() > kCharacterizationRecordCap) {
      index.erase(lru.back().first);
      lru.pop_back();
    }
    return lru.front().second;
  }

  void clear() {
    index.clear();
    lru.clear();
  }
};

/// One process-wide memo for every simulated characterization product.
/// Keys are structural-hash-derived digests; values are immutable once
/// interned, so lookups can hand out copies under a single mutex.
struct CharacterizationCache {
  std::mutex mutex;
  RecordLru records;
  std::unordered_map<std::uint64_t, TruthTable> tables;
  std::unordered_map<std::uint64_t, std::array<double, 3>> numeric;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CharacterizationCache& cache() {
  static CharacterizationCache instance;
  return instance;
}

using detail::mix_key;

std::uint64_t mix_key(std::uint64_t h, double value) {
  return mix_key(h, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t mix_key(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h = mix_key(h, static_cast<std::uint64_t>(
                       static_cast<unsigned char>(c)));
  }
  return mix_key(h, text.size());
}

std::uint64_t truth_table_digest(const TruthTable& table) {
  std::uint64_t h = mix_key(std::uint64_t{table.num_inputs()},
                            std::uint64_t{table.num_outputs()});
  for (std::uint32_t row = 0; row < table.row_count(); ++row) {
    h = mix_key(h, std::uint64_t{table.value(row)});
  }
  return h;
}

/// The uncached body of netlist_truth_table().
TruthTable enumerate_truth_table(const Netlist& netlist) {
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const unsigned n_out = static_cast<unsigned>(netlist.outputs().size());
  // Bitsliced enumeration: 64 rows per pass over the gate list.
  BitslicedSimulator sim(netlist);
  const std::uint64_t total = std::uint64_t{1} << n_in;
  std::vector<std::uint32_t> rows(total);
  for (std::uint64_t base = 0; base < total;
       base += BitslicedSimulator::kLanes) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::uint64_t>(BitslicedSimulator::kLanes, total - base));
    sim.apply_word_range(base, lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      rows[base + k] = static_cast<std::uint32_t>(sim.lane_output(k));
    }
  }
  return TruthTable::from_rows(n_in, n_out, std::move(rows));
}

}  // namespace

TruthTable netlist_truth_table(const Netlist& netlist) {
  const unsigned n_in = static_cast<unsigned>(netlist.inputs().size());
  const unsigned n_out = static_cast<unsigned>(netlist.outputs().size());
  require(n_in >= 1 && n_in <= 20 && n_out >= 1 && n_out <= 32,
          "netlist_truth_table: netlist too wide to enumerate");
  const std::uint64_t key =
      mix_key(netlist.structural_hash(), std::uint64_t{0x77});
  {
    CharacterizationCache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.tables.find(key);
    if (it != c.tables.end()) {
      ++c.hits;
      count_cache_probe(true);
      return it->second;
    }
    ++c.misses;
    count_cache_probe(false);
  }
  TruthTable table = enumerate_truth_table(netlist);
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.tables.emplace(key, std::move(table)).first->second;
}

Characterization characterize(const Netlist& netlist,
                              const std::optional<TruthTable>& reference,
                              std::uint64_t vectors, std::uint64_t seed,
                              const PowerModel& model) {
  std::uint64_t key =
      mix_key(netlist.structural_hash(), std::uint64_t{0xC4});
  key = mix_key(key, netlist.name());
  key = mix_key(key, vectors);
  key = mix_key(key, seed);
  key = mix_key(key, model.clock_ghz);
  key = mix_key(key, model.energy_scale);
  key = mix_key(key, model.leakage_nw_per_ge);
  key = mix_key(key, reference.has_value()
                         ? truth_table_digest(*reference)
                         : std::uint64_t{0});
  {
    CharacterizationCache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    if (const Characterization* record = c.records.find(key)) {
      ++c.hits;
      count_cache_probe(true);
      return *record;
    }
    ++c.misses;
    count_cache_probe(false);
  }

  Characterization result;
  result.name = netlist.name();
  result.area_ge = netlist.area_ge();
  result.gate_count = netlist.gate_count();
  result.power_nw = estimate_random_power(netlist, vectors, seed, model).total_nw;
  if (reference.has_value()) {
    const TruthTable actual = netlist_truth_table(netlist);
    result.error_cases = actual.error_cases_vs(*reference);
    result.max_error = actual.max_error_vs(*reference);
    result.input_space = actual.row_count();
  }

  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.records.insert(key, std::move(result));
}

CharacterizationCacheStats characterization_cache_stats() {
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return {c.hits, c.misses, c.records.lru.size()};
}

void clear_characterization_cache() {
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.records.clear();
  c.tables.clear();
  c.numeric.clear();
  c.hits = 0;
  c.misses = 0;
}

namespace detail {

std::uint64_t mix_key(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

std::array<double, 3> cache_numeric_record(
    std::uint64_t key, const std::function<std::array<double, 3>()>& compute) {
  {
    CharacterizationCache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.numeric.find(key);
    if (it != c.numeric.end()) {
      ++c.hits;
      count_cache_probe(true);
      return it->second;
    }
    ++c.misses;
    count_cache_probe(false);
  }
  const std::array<double, 3> record = compute();
  CharacterizationCache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.numeric.emplace(key, record).first->second;
}

}  // namespace detail

Characterization characterize_full_adder(arith::FullAdderKind kind) {
  const Netlist netlist = full_adder_netlist(kind);
  // Reference: the accurate behaviour, outputs packed as {sum, carry}.
  const TruthTable reference = TruthTable::from_function(
      3, 2, [](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 1u, b = (w >> 1) & 1u, cin = (w >> 2) & 1u;
        const auto out =
            arith::full_add(arith::FullAdderKind::Accurate, a, b, cin);
        return out.sum | (out.carry << 1);
      });
  return characterize(netlist, reference);
}

Characterization characterize_mul2x2(arith::Mul2x2Kind kind,
                                     bool configurable) {
  // Quality is always judged on the 4-input product function; for the
  // configurable variants we characterize area/power on the full netlist
  // (mode pin included in the random stimulus, as a real workload would
  // toggle it) and quality in approximate mode.
  const TruthTable reference =
      TruthTable::from_function(4, 4, [](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 3u;
        const unsigned b = (w >> 2) & 3u;
        return a * b;
      });

  const Netlist netlist =
      configurable ? cfg_mul2x2_netlist(kind) : mul2x2_netlist(kind);
  Characterization result;
  result.name = netlist.name();
  result.area_ge = netlist.area_ge();
  result.gate_count = netlist.gate_count();
  result.power_nw = estimate_random_power(netlist).total_nw;

  // Behavioural quality of the approximate mode.
  const TruthTable behaviour =
      TruthTable::from_function(4, 4, [&](std::uint32_t w) -> std::uint32_t {
        const unsigned a = w & 3u;
        const unsigned b = (w >> 2) & 3u;
        return arith::mul2x2(kind, a, b);
      });
  result.error_cases = behaviour.error_cases_vs(reference);
  result.max_error = behaviour.max_error_vs(reference);
  result.input_space = behaviour.row_count();
  return result;
}

}  // namespace axc::logic
