// A configurable search engine for chromatic, carrier-preserving
// simplicial maps.
//
// Both directions of the paper's machinery need witnesses of the form
// "a chromatic simplicial map from A to B such that the image of every
// simplex lies in a prescribed subcomplex":
//  * ACT (Corollary 7.1): eta : Chr^k I -> O with eta(sigma) in
//    Delta(carrier(sigma));
//  * the chromatic simplicial approximation of Theorem 8.4 / Proposition
//    9.1: delta : K(T') -> O approximating a continuous map f, found here
//    by ordering each vertex's candidates by distance to f(vertex).
//
// The search is a constraint satisfaction problem: variables are the
// vertices of A, domains are color-matching vertices of B allowed by the
// vertex's constraint complex, and every simplex of A whose vertices are
// all assigned must map to a simplex of its constraint complex.
//
// Two engines are provided:
//  * the shipped engine prunes per-vertex domains by forward checking
//    through a precomputed vertex/simplex adjacency index
//    (topology/adjacency_index) and always branches on the most
//    constrained vertex (minimum remaining values, then degree);
//  * SolverConfig::naive() selects the plain chronological backtracker
//    the library shipped with, kept verbatim as the one independent
//    reference the shipped engine is tested against.
// Independently, `num_threads > 1` races a portfolio of searches with
// diversified value orders as a cancellable task group on the resident
// scheduler (src/exec/); the first witness wins via a CancelToken.
// Whatever the thread count, each solve's set-up — the initial domains
// and the root propagation of the fixed vertices — runs one unit per
// domain vertex on the shared scheduler at its full width.
//
// The shipped engine's per-node work is flattened by incremental layers
// that are always on and provably verdict/witness-preserving:
//  * an evaluation cache (core/eval_cache.h) memoizing allowed()
//    complexes and full image evaluations, keyed by dense constraint ids
//    from the adjacency index;
//  * nogood learning (core/nogood_store.h) recording each proven
//    conflict's minimal assignment set and pruning branches that would
//    recreate it; a full store collects its least active nogoods, and
//    Luby restarts re-descend from the component root with what was
//    learned;
//  * conflict-directed backjumping: the same minimal conflict sets tell
//    the engine which decision actually caused a dead end, and the
//    search returns straight to the deepest decision in the set instead
//    of backtracking chronologically through decisions the conflict
//    provably does not involve.
// Learned conflicts travel beyond the thread that proved them on two
// timescales: *mid-flight*, portfolio threads publish every newly
// recorded nogood to a lock-light LiveNogoodExchange and import each
// other's at backtrack/backjump points (SolverConfig::live_exchange);
// *across solves*, they persist through a SharedNogoodPool wired onto
// the problem by its builder (see ChromaticMapProblem::nogood_pool and
// core/nogood_store.h), which itself persists across processes via
// SharedNogoodPool::save/load.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "core/nogood_store.h"
#include "topology/simplicial_map.h"

namespace gact::exec {
class CancelToken;
}

namespace gact::core {

using topo::ChromaticComplex;
using topo::Simplex;
using topo::SimplicialComplex;
using topo::SimplicialMap;
using topo::VertexId;

/// @brief Problem statement of one chromatic-map search; see the header
/// comment for the two paper instances it encodes.
struct ChromaticMapProblem {
    /// @brief The complex being mapped (A). Not owned; must outlive the
    /// problem.
    const ChromaticComplex* domain = nullptr;
    /// @brief The complex mapped into (B). Not owned; must outlive the
    /// problem.
    const ChromaticComplex* codomain = nullptr;

    /// @brief The constraint complex for each simplex of the domain (the
    /// image must be one of its simplices).
    ///
    /// @note Carrier preservation lives here: for the paper's instances
    /// `allowed(sigma)` is Delta(carrier(sigma)), and the search is only
    /// meaningful when the function is monotone under faces (carrier
    /// maps are, by condition (ii) of Section 3.2).
    /// @note Must be pure and stable within one solve: the solver's
    /// memoization layers (core/eval_cache.h) cache both the returned
    /// reference and evaluation results against it, and the initial
    /// domain filter keeps one vertex table per returned reference.
    /// Every solve may call it from several threads at once (the
    /// sharded set-up, and the portfolio race with num_threads > 1), so
    /// it must be thread-safe for reads.
    std::function<const SimplicialComplex&(const Simplex&)> allowed;

    /// @brief Pre-assigned vertices (may be empty).
    std::unordered_map<VertexId, VertexId> fixed;

    /// @brief Optional candidate ordering: permutes, in place, the
    /// candidates the solver hands it for a free domain vertex (distinct
    /// color-matching codomain vertices, in id order) into the order to
    /// try them. When absent, candidates are tried in id order.
    /// @note The solver supplies only candidates that can survive: the
    /// shipped engine hands a free vertex with fixed neighbours just the
    /// codomain vertices equal or adjacent to every fixed neighbour's
    /// image (root propagation's adjacency pre-filter); the naive engine
    /// and a vertex with no fixed neighbour get every color-matching
    /// codomain vertex. So the order must come from a strict total order
    /// on candidates (a sort with every tie broken, say by vertex id):
    /// then a subset is ordered as the full set restricted to it, and
    /// both engines see the same relative order.
    /// @note Every solve may call it from several threads at once (the
    /// sharded set-up), so it must be thread-safe.
    std::function<void(VertexId, std::span<VertexId>)> order_candidates;

    /// @brief Optional cross-solve learning pool (core/nogood_store.h).
    /// When set together with `nogood_scope` and `pool_var_key`, every
    /// solver thread seeds its nogood store from the pool's scope before
    /// searching and publishes its newly learned nogoods afterwards.
    /// Installed by the problem builders, never by the solver: the
    /// builder owns the soundness contract that every solve sharing the
    /// scope poses the same constraint problem. Not owned; must outlive
    /// the problem. Thread-safe.
    SharedNogoodPool* nogood_pool = nullptr;
    /// @brief The pool namespace this problem publishes into and seeds
    /// from; see SharedNogoodPool for the identity contract. Empty
    /// disables pooling.
    std::string nogood_scope;
    /// @brief Translation of a domain vertex to its pool key (interned
    /// stable (position, color) id), so literals survive per-depth
    /// vertex re-indexing. Must be pure; called concurrently with
    /// num_threads > 1.
    std::function<SharedNogoodPool::VarKeyId(VertexId)> pool_var_key;
};

/// How each variable's candidate list is ordered.
enum class ValueOrder {
    /// As given: `order_candidates` when present, else codomain
    /// vertex-id order.
    kGiven,
    /// Deterministic shuffle of the given order from `SolverConfig::seed`
    /// (portfolio threads perturb the seed per thread).
    kShuffled,
};

/// @brief Entry cap of the per-thread image-evaluation memo (each entry
/// is one (constraint, image fingerprint) -> verdict/mask result).
inline constexpr std::size_t kEvalCacheCapacity = std::size_t{1} << 18;
/// @brief Live nogoods per search thread; a full store collects down to
/// NogoodStore::kKeepFraction of it and keeps learning
/// (core/nogood_store.h).
inline constexpr std::size_t kNogoodCapacity = 4096;
/// @brief Luby restart unit: the i-th run of a component search gets
/// luby(i) * kRestartUnit backtracks (1, 1, 2, 1, 1, 2, 4, ... units).
inline constexpr std::size_t kRestartUnit = 512;
/// @brief Import-size cap of the mid-flight portfolio exchange: only
/// nogoods with at most this many literals are imported (short nogoods
/// fire most often — an LBD-style filter on the cheap import side).
inline constexpr std::size_t kExchangeMaxLiterals = 8;

/// @brief The knobs of the search: budgets, cancellation, the portfolio
/// race, and the reference-engine selector. The search strategy itself
/// is fixed (see the header comment).
struct SolverConfig {
    /// @brief Candidate-value ordering (see ValueOrder).
    ValueOrder value_order = ValueOrder::kGiven;
    /// @brief Backtrack budget per engine run (per thread in portfolio
    /// mode).
    std::size_t max_backtracks = 1000000;
    /// @brief 1 = single-threaded. > 1 races that many searches with
    /// value orders diversified per thread; the first witness wins and
    /// stops the rest through a CancelToken (exec/cancel.h).
    unsigned num_threads = 1;
    /// @brief Base seed for ValueOrder::kShuffled and portfolio
    /// diversification.
    std::uint64_t seed = 0;

    /// @brief Mid-flight nogood exchange between portfolio threads
    /// (active only with num_threads > 1): each thread publishes every
    /// newly recorded nogood to a lock-light shared log
    /// (core/nogood_store.h, LiveNogoodExchange) and imports the others'
    /// at its backtrack/backjump points and at each component start, so
    /// a conflict one thread proves stops costing every other thread its
    /// re-derivation — while they are all still searching, not at the
    /// next solve boundary.
    /// @note Sound for the same reason seeding from the cross-solve pool
    /// is: portfolio threads share every per-solve constant, and a
    /// recorded conflict depends only on those constants and its
    /// literals. Verdicts and witnesses are bit-identical with the
    /// exchange on or off; backtrack counts shrink nondeterministically
    /// (imports race with the search that would have re-proven them).
    bool live_exchange = true;

    /// @brief Diversify the portfolio (the default): threads beyond the
    /// first search with per-thread shuffled value orders, so the race
    /// explores different subtrees. Off = every thread runs the
    /// identical search; the race then only hedges scheduling, but the
    /// reported verdict and witness become deterministic for any thread
    /// count (what the exchange/pool/thread matrix test pins) — and so
    /// do the counters when the live exchange is off (imports race, so
    /// with the exchange on only the verdict/witness stay pinned). The
    /// exchange still helps an undiversified race: a slower replica
    /// skips conflicts a faster one already proved.
    bool diversify_portfolio = true;

    /// @brief Capacity of the carrier -> constraint-complex LRU used by
    /// the *problem builders* (act_problem / lt_approximation_problem),
    /// not by the CSP core itself: it persists across subdivision depths
    /// where per-depth vertex ids do not. 0 disables it.
    std::size_t allowed_lru_capacity = 256;

    /// @brief External cancellation (exec/cancel.h): when set, the
    /// search aborts at its backtrack checkpoints once the token is
    /// cancelled or past its deadline — the same "not a proof" abort as
    /// a spent backtrack budget (`exhausted` comes back false). The
    /// set-up polls it too: in each of its two sharded passes (initial
    /// domains, then root propagation) once per domain vertex, before
    /// that vertex's order_candidates or constraint calls, and once
    /// after each pass. A set-up cut short returns no map and is not
    /// exhausted; one cut during the domain pass never starts root
    /// propagation. Not owned; must outlive the solve. Null = never
    /// cancelled. The engine threads EngineOptions::time_budget_ms
    /// through here, and the portfolio race runs under a child of this
    /// token so settling one race never cancels the caller's scope.
    const exec::CancelToken* cancel = nullptr;

    /// @brief Run the seed backtracker instead of the shipped engine:
    /// static maximum-cardinality order, no pruning, no caches, one
    /// thread (num_threads, value_order, and the portfolio knobs are
    /// ignored). The independent reference the shipped engine is tested
    /// against; set only through naive().
    bool naive_engine = false;

    /// @brief The seed backtracker (see `naive_engine`); the builders'
    /// carrier LRU is off too, so nothing is memoized anywhere.
    static SolverConfig naive(std::size_t max_backtracks = 1000000) {
        SolverConfig c;
        c.naive_engine = true;
        c.max_backtracks = max_backtracks;
        c.allowed_lru_capacity = 0;
        return c;
    }

    /// @brief The shipped engine (the default configuration) with the
    /// given budget.
    static SolverConfig fast(std::size_t max_backtracks = 1000000) {
        SolverConfig c;
        c.max_backtracks = max_backtracks;
        return c;
    }

    /// @brief `threads` diversified shipped searches racing.
    static SolverConfig portfolio(unsigned threads,
                                  std::size_t max_backtracks = 1000000,
                                  std::uint64_t seed = 0) {
        SolverConfig c;
        c.max_backtracks = max_backtracks;
        c.num_threads = threads;
        c.seed = seed;
        return c;
    }
};

/// @brief The additive effort/learning counters of one search.
///
/// Every field is a std::size_t tally, and add() accumulates ALL of
/// them — that is an enforced invariant, not a convention: a
/// static_assert next to add()'s definition (chromatic_csp.cpp) pins
/// sizeof(SearchCounters) to the field count, so adding a counter
/// without extending add() fails the build instead of being silently
/// dropped by some accumulation site (the portfolio merge used to
/// hand-sum eight fields; a ninth would have vanished from merged
/// reports). The populated-struct round-trip in
/// tests/solver_cache_test.cpp covers the sums themselves.
struct SearchCounters {
    /// Number of backtracking steps performed.
    std::size_t backtracks = 0;
    /// Branches skipped because they would have completed a recorded
    /// nogood (not counted as backtracks).
    std::size_t nogood_prunings = 0;
    /// Nogoods recorded by the search itself (pool seeds and exchange
    /// imports are counted separately, never here). This keeps growing
    /// past kNogoodCapacity — the capacity bounds the *live* set, not
    /// the learning (tests/solver_cache_test.cpp pins exactly this).
    std::size_t nogoods_recorded = 0;
    /// Nogoods retired by store collections; 0 when the store never
    /// filled.
    std::size_t nogoods_evicted = 0;
    /// Luby restarts taken (kRestartUnit): abandoned trees,
    /// not counting the final run that settled the component.
    std::size_t restarts = 0;
    /// Dead ends resolved by a non-chronological jump: decision levels
    /// popped without re-enumerating their remaining values because the
    /// conflict set did not involve them (conflict-directed
    /// backjumping).
    std::size_t backjumps = 0;
    /// Nogoods imported from the problem's SharedNogoodPool at the
    /// start of the search (0 when no pool is wired).
    std::size_t pool_seeded = 0;
    /// Newly learned nogoods published back to the pool.
    std::size_t pool_published = 0;
    /// Nogoods published to the mid-flight portfolio exchange
    /// (SolverConfig::live_exchange; 0 single-threaded).
    std::size_t exchange_published = 0;
    /// Nogoods imported from other portfolio threads mid-search.
    std::size_t exchange_imported = 0;
    /// Constraint-evaluation cache hits (allowed() + image memos
    /// combined); 0 for the naive engine, which runs uncached.
    std::size_t eval_cache_hits = 0;
    /// Constraint-evaluation cache misses (including insertions
    /// rejected at capacity).
    std::size_t eval_cache_misses = 0;

    /// Field-wise accumulation of EVERY counter (see the struct note).
    void add(const SearchCounters& other) noexcept;
};

/// @brief Result of the search.
struct ChromaticMapResult {
    /// @brief The witness map, when one was found.
    std::optional<SimplicialMap> map;
    /// @brief True when the search space was exhausted (so no map exists
    /// under the given constraints); false when the backtrack budget ran
    /// out or a portfolio race was stopped early.
    bool exhausted = false;
    /// @brief Search effort and learning tallies. In portfolio mode the
    /// counters report the settling thread (the first to find a witness
    /// or exhaust the space) — one coherent search's account, never a
    /// sum mixing in losing threads' partial work; only when no thread
    /// settles (every budget ran out) are counters summed across
    /// threads as "total budgeted effort".
    SearchCounters counters;

    /// @brief Accumulate another result's counters (every field of
    /// SearchCounters — see its note on the fields-covered guarantee).
    /// `map` and `exhausted` are deliberately untouched: combining
    /// verdicts is the caller's semantic decision, combining tallies is
    /// not.
    void add_counters(const ChromaticMapResult& other) noexcept {
        counters.add(other.counters);
    }
};

/// @brief Search for a satisfying map with the given engine
/// configuration.
ChromaticMapResult solve_chromatic_map(const ChromaticMapProblem& problem,
                                       const SolverConfig& config);

/// @brief Verify that `map` is a chromatic simplicial map from
/// problem.domain to problem.codomain with every simplex image inside
/// its constraint complex. Returns a diagnostic or "" if valid.
/// @note This is the independent post-check every solve runs on its own
/// witness, which is also what guarantees the memoization layers cannot
/// smuggle an invalid map out of the solver.
std::string check_chromatic_map(const ChromaticMapProblem& problem,
                                const SimplicialMap& map);

}  // namespace gact::core
