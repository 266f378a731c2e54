#include "core/chromatic_csp.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <queue>
#include <random>
#include <span>
#include <thread>
#include <unordered_set>

#include "core/eval_cache.h"
#include "core/nogood_store.h"
#include "exec/cancel.h"
#include "exec/for_index.h"
#include "exec/scheduler.h"
#include "exec/task_group.h"
#include "topology/adjacency_index.h"
#include "util/require.h"

namespace gact::core {

// The fields-covered check of SearchCounters::add: the struct must be
// exactly its counters (no padding, no non-counter members), so any new
// field changes sizeof and lands here. When this assert fires, extend
// add() below AND the populated-struct round-trip in
// tests/solver_cache_test.cpp, then bump the expected count.
static_assert(sizeof(SearchCounters) == 12 * sizeof(std::size_t),
              "SearchCounters gained or lost a field: update "
              "SearchCounters::add() (every accumulation site funnels "
              "through it) and the round-trip test, then adjust this "
              "count");

void SearchCounters::add(const SearchCounters& other) noexcept {
    backtracks += other.backtracks;
    nogood_prunings += other.nogood_prunings;
    nogoods_recorded += other.nogoods_recorded;
    nogoods_evicted += other.nogoods_evicted;
    restarts += other.restarts;
    backjumps += other.backjumps;
    pool_seeded += other.pool_seeded;
    pool_published += other.pool_published;
    exchange_published += other.exchange_published;
    exchange_imported += other.exchange_imported;
    eval_cache_hits += other.eval_cache_hits;
    eval_cache_misses += other.eval_cache_misses;
}

namespace {

// ---------------------------------------------------------------------------
// Shared problem preprocessing: assignment order and initial domains.
// ---------------------------------------------------------------------------

/// Dense vertex membership of a complex: flags[w] != 0 iff w is one of
/// its vertices.
std::vector<char> vertex_flags(const SimplicialComplex& complex) {
    const std::vector<VertexId> ids = complex.vertex_ids();
    std::vector<char> flags(ids.empty() ? 0 : std::size_t{ids.back()} + 1, 0);
    for (VertexId w : ids) flags[w] = 1;
    return flags;
}

bool has_vertex(const std::vector<char>& flags, VertexId w) {
    return w < flags.size() && flags[w] != 0;
}

/// Runs `fn(i)` for every i in [0, n) on the shared scheduler at its
/// full width: the set-up's per-vertex work. Inline when the pool has
/// one worker; nested inside a solve_batch worker it forks onto the
/// same pool.
template <typename Fn>
void for_each_vertex(std::size_t n, Fn&& fn) {
    exec::Scheduler& scheduler = exec::Scheduler::shared();
    exec::for_index(scheduler, n, scheduler.worker_count(),
                    std::forward<Fn>(fn));
}

bool is_cancelled(const exec::CancelToken* cancel) {
    return cancel != nullptr && cancel->cancelled();
}

/// Initial candidate lists for every domain vertex, computed once per
/// solve: the order_candidates closures can be expensive (exact rational
/// geometry in the L_t pipeline), and portfolio threads all start from
/// the same base order.
using DomainMap = std::unordered_map<VertexId, std::vector<VertexId>>;

/// The fixed assignments, dense over the domain's vertex ids (decompose
/// has checked that every fixed vertex is one of them).
struct FixedValues {
    std::vector<char> is_fixed;
    std::vector<VertexId> value;

    FixedValues(const ChromaticMapProblem& problem,
                const std::vector<VertexId>& vertices) {
        const std::size_t size =
            vertices.empty() ? 0 : std::size_t{vertices.back()} + 1;
        is_fixed.assign(size, 0);
        value.assign(size, 0);
        for (const auto& [v, w] : problem.fixed) {
            is_fixed[v] = 1;
            value[v] = w;
        }
    }
};

/// The candidates of a free vertex v that has fixed neighbours: the
/// color-matching codomain vertices equal or adjacent to every fixed
/// neighbour's image, in id order. A value outside this set cannot
/// complete the edge to some fixed neighbour into a codomain simplex, so
/// root propagation would drop it (this is its adjacency pre-filter);
/// nullopt when v has no fixed neighbour.
std::optional<std::vector<VertexId>> pool_near_fixed(
    const ChromaticMapProblem& problem, const topo::AdjacencyIndex& index,
    const FixedValues& fixed, const topo::AdjacencyIndex& codomain_adjacency,
    const std::vector<char>& in_codomain, VertexId v) {
    // The fixed neighbours' images, the one with the fewest neighbours
    // first: its closed neighbourhood is the pool's superset.
    std::vector<VertexId> images;
    for (VertexId x : index.neighbors(v)) {
        if (fixed.is_fixed[x] != 0) images.push_back(fixed.value[x]);
    }
    if (images.empty()) return std::nullopt;
    std::ranges::sort(images);
    images.erase(std::unique(images.begin(), images.end()), images.end());
    const auto degree = [&](VertexId w) {
        return codomain_adjacency.neighbors(w).size();
    };
    std::swap(images.front(), *std::ranges::min_element(images, {}, degree));
    const auto near = [&](VertexId image, VertexId w) {
        return w == image ||
               std::ranges::binary_search(codomain_adjacency.neighbors(image),
                                          w);
    };
    const topo::Color color = problem.domain->color(v);
    std::vector<VertexId> pool = codomain_adjacency.neighbors(images.front());
    pool.insert(std::ranges::upper_bound(pool, images.front()),
                images.front());
    std::erase_if(pool, [&](VertexId w) {
        if (!has_vertex(in_codomain, w) ||
            problem.codomain->color(w) != color) {
            return true;
        }
        return !std::ranges::all_of(
            std::span(images).subspan(1),
            [&](VertexId image) { return near(image, w); });
    });
    return pool;
}

/// Each vertex's candidates — the fixed value, or the free vertex's
/// candidate pool ordered by order_candidates when present — filtered by
/// the vertex's own constraint complex. A free vertex's pool is every
/// color-matching codomain vertex, except that with
/// `codomain_adjacency` (the shipped engine, when some vertex is fixed)
/// one with fixed neighbours gets only pool_near_fixed: root propagation
/// keeps the same values in the same order either way, because the
/// order is a strict total order on candidates (see order_candidates).
/// One sharded pass writes each vertex's candidate list and allowed()
/// reference into its own slot; then, serially, the filter reads dense
/// vertex flags: one table for the codomain and one per distinct
/// allowed() complex, keyed by the returned reference (stable for the
/// whole solve by the problem contract). Fixed values must be vertices
/// of the codomain: the naive engine would reject strays through the
/// 0-simplex constraints, but the FC engine's adjacency index only
/// carries dimension >= 1, so filter here for both. Polls `cancel` once
/// per vertex (before its order_candidates call) and once after the
/// pass; nullopt when it fired.
std::optional<DomainMap> all_initial_domains(
    const ChromaticMapProblem& problem, const topo::AdjacencyIndex& index,
    const std::vector<VertexId>& vertices, const FixedValues& fixed,
    const topo::AdjacencyIndex* codomain_adjacency,
    const exec::CancelToken* cancel) {
    // Color-matching codomain vertices in id order, for free vertices
    // without a pool near fixed ones (every fixed vertex is a domain
    // vertex, so some vertex is free iff fewer are fixed).
    std::map<topo::Color, std::vector<VertexId>> by_color;
    if (problem.fixed.size() < vertices.size()) {
        for (VertexId w : problem.codomain->vertex_ids()) {
            by_color[problem.codomain->color(w)].push_back(w);
        }
    }
    const std::vector<char> in_codomain =
        vertex_flags(problem.codomain->complex());
    std::vector<std::vector<VertexId>> candidates(vertices.size());
    std::vector<const SimplicialComplex*> allowed(vertices.size(), nullptr);
    for_each_vertex(vertices.size(), [&](std::size_t i) {
        if (is_cancelled(cancel)) return;
        const VertexId v = vertices[i];
        allowed[i] = &problem.allowed(Simplex{v});
        if (fixed.is_fixed[v] != 0) {
            candidates[i] = {fixed.value[v]};
            return;
        }
        std::optional<std::vector<VertexId>> pool;
        if (codomain_adjacency != nullptr) {
            pool = pool_near_fixed(problem, index, fixed, *codomain_adjacency,
                                   in_codomain, v);
        }
        if (pool.has_value()) {
            candidates[i] = std::move(*pool);
        } else if (const auto it = by_color.find(problem.domain->color(v));
                   it != by_color.end()) {
            candidates[i] = it->second;
        }
        if (problem.order_candidates) {
            problem.order_candidates(v, candidates[i]);
        }
    });
    if (is_cancelled(cancel)) return std::nullopt;

    std::unordered_map<const SimplicialComplex*, std::vector<char>> in_allowed;
    DomainMap domains;
    domains.reserve(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        auto ait = in_allowed.find(allowed[i]);
        if (ait == in_allowed.end()) {
            ait = in_allowed.emplace(allowed[i], vertex_flags(*allowed[i]))
                      .first;
        }
        std::vector<VertexId> filtered;
        for (VertexId w : candidates[i]) {
            if (has_vertex(in_codomain, w) && has_vertex(ait->second, w)) {
                filtered.push_back(w);
            }
        }
        // Free the raw list now: otherwise every raw list and every
        // filtered domain would be live at once.
        std::vector<VertexId>().swap(candidates[i]);
        domains.emplace(vertices[i], std::move(filtered));
    }
    return domains;
}

/// The naive engine's leaf constraint test: the image of a fully
/// assigned simplex must be a simplex of the codomain lying inside
/// sigma's constraint complex.
bool image_constraint_holds(
    const ChromaticMapProblem& problem,
    const std::unordered_map<VertexId, VertexId>& assignment,
    const Simplex& sigma) {
    std::vector<VertexId> image;
    image.reserve(sigma.size());
    for (VertexId v : sigma.vertices()) image.push_back(assignment.at(v));
    const Simplex img(image);
    if (!problem.codomain->contains(img)) return false;
    return problem.allowed(sigma).contains(img);
}

/// Free-vertex connected components (free-free adjacency): independent
/// subproblems given the fixed assignments, solved separately to avoid
/// cross-component thrashing. Also produces, per component, the static
/// maximum-cardinality order (always the vertex adjacent to the most
/// already-ordered vertices, so contradictions surface immediately).
struct Decomposition {
    std::vector<VertexId> fixed_order;
    std::vector<std::vector<VertexId>> component_orders;
};

Decomposition decompose(const ChromaticMapProblem& problem,
                        const topo::AdjacencyIndex& index,
                        const std::vector<VertexId>& vertices) {
    Decomposition out;
    for (const auto& [v, w] : problem.fixed) {
        (void)w;
        require(problem.domain->contains_vertex(v),
                "solve_chromatic_map: fixed vertex not in domain");
        out.fixed_order.push_back(v);
    }
    std::sort(out.fixed_order.begin(), out.fixed_order.end());

    // Per-vertex state, dense over the domain's vertex ids (the same
    // bound FcSearcher::var_of_vertex relies on).
    const std::size_t size =
        vertices.empty() ? 0 : std::size_t{vertices.back()} + 1;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<char> is_fixed(size, 0);
    for (VertexId v : out.fixed_order) is_fixed[v] = 1;

    std::vector<std::size_t> component(size, kNone);
    std::size_t num_components = 0;
    for (VertexId v : vertices) {
        if (is_fixed[v] != 0 || component[v] != kNone) continue;
        std::vector<VertexId> stack{v};
        component[v] = num_components;
        while (!stack.empty()) {
            const VertexId u = stack.back();
            stack.pop_back();
            for (VertexId w : index.neighbors(u)) {
                if (is_fixed[w] == 0 && component[w] == kNone) {
                    component[w] = num_components;
                    stack.push_back(w);
                }
            }
        }
        ++num_components;
    }
    // Members of every component in one pass, each in id order.
    std::vector<std::vector<VertexId>> members(num_components);
    for (VertexId v : vertices) {
        if (component[v] != kNone) members[component[v]].push_back(v);
    }

    // Maximum cardinality: repeatedly the unplaced member with the most
    // placed neighbors, ties to the smallest id. A lazy max-heap on
    // (score, -id) yields exactly that total order: scores only grow,
    // every increment pushes a fresh entry, and stale entries (score
    // below the vertex's current one, or already placed) are skipped.
    out.component_orders.resize(num_components);
    std::vector<std::size_t> score(size, 0);
    std::vector<char> placed(size, 0);
    const auto place = [&](VertexId v) {
        placed[v] = 1;
        for (VertexId u : index.neighbors(v)) ++score[u];
    };
    for (VertexId v : out.fixed_order) place(v);
    using Entry = std::pair<std::size_t, std::int64_t>;  // (score, -id)
    for (std::size_t c = 0; c < num_components; ++c) {
        std::priority_queue<Entry> heap;
        for (VertexId v : members[c]) {
            heap.emplace(score[v], -static_cast<std::int64_t>(v));
        }
        std::vector<VertexId>& order = out.component_orders[c];
        order.reserve(members[c].size());
        while (order.size() < members[c].size()) {
            const auto [entry_score, neg_id] = heap.top();
            heap.pop();
            const auto v = static_cast<VertexId>(-neg_id);
            if (placed[v] != 0 || entry_score != score[v]) continue;
            order.push_back(v);
            place(v);
            for (VertexId u : index.neighbors(v)) {
                if (placed[u] == 0 && component[u] == c) {
                    heap.emplace(score[u], -static_cast<std::int64_t>(u));
                }
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Naive engine: the seed's plain chronological backtracker, kept verbatim
// as the SolverConfig::naive() reference.
// ---------------------------------------------------------------------------

struct NaiveSearcher {
    explicit NaiveSearcher(const ChromaticMapProblem& p) : problem(p) {}

    const ChromaticMapProblem& problem;
    const exec::CancelToken* cancel = nullptr;
    std::vector<VertexId> order;                 // assignment order
    std::vector<std::vector<VertexId>> domains;  // candidates per position
    std::unordered_map<VertexId, VertexId> assignment;
    // simplices of the domain complex indexed by their highest-ordered
    // vertex, so each constraint is checked exactly once, as soon as it is
    // fully assigned.
    std::unordered_map<VertexId, std::vector<Simplex>> constraints_by_last;
    SearchCounters counters;
    std::size_t max_backtracks = 0;
    bool exhausted = true;

    bool constraint_holds(const Simplex& sigma) const {
        return image_constraint_holds(problem, assignment, sigma);
    }

    bool assign(std::size_t idx) {
        if (cancel != nullptr && cancel->cancelled()) {
            exhausted = false;
            return false;
        }
        if (idx == order.size()) return true;
        const VertexId v = order[idx];
        for (VertexId w : domains[idx]) {
            assignment[v] = w;
            bool ok = true;
            const auto it = constraints_by_last.find(v);
            if (it != constraints_by_last.end()) {
                for (const Simplex& sigma : it->second) {
                    if (!constraint_holds(sigma)) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok && assign(idx + 1)) return true;
            assignment.erase(v);
            if (++counters.backtracks > max_backtracks) {
                exhausted = false;
                return false;
            }
        }
        return false;
    }
};

/// Solve the subproblem induced by the fixed vertices plus one connected
/// component of free vertices with the naive engine. On success, the
/// component's assignments are merged into `solution`.
bool naive_solve_component(const ChromaticMapProblem& problem,
                           const DomainMap& base_domains,
                           const std::vector<VertexId>& fixed_order,
                           const std::vector<VertexId>& component_order,
                           std::size_t max_backtracks,
                           const exec::CancelToken* cancel,
                           ChromaticMapResult& result,
                           std::unordered_map<VertexId, VertexId>& solution) {
    NaiveSearcher s(problem);
    s.cancel = cancel;
    s.max_backtracks = max_backtracks;
    std::unordered_set<VertexId> in_scope;
    for (VertexId v : fixed_order) {
        s.order.push_back(v);
        in_scope.insert(v);
    }
    for (VertexId v : component_order) {
        s.order.push_back(v);
        in_scope.insert(v);
    }

    // Constraints restricted to simplices fully inside the scope, indexed
    // by their latest-assigned vertex so each is checked exactly once.
    std::unordered_map<VertexId, std::size_t> position;
    for (std::size_t i = 0; i < s.order.size(); ++i) position[s.order[i]] = i;
    for (const Simplex& sigma : problem.domain->complex().simplices()) {
        VertexId last = sigma.vertices().front();
        bool inside = true;
        for (VertexId v : sigma.vertices()) {
            if (in_scope.count(v) == 0) {
                inside = false;
                break;
            }
            if (position.at(v) > position.at(last)) last = v;
        }
        if (inside) s.constraints_by_last[last].push_back(sigma);
    }

    s.domains.resize(s.order.size());
    for (std::size_t i = 0; i < s.order.size(); ++i) {
        s.domains[i] = base_domains.at(s.order[i]);
    }

    const bool found = s.assign(0);
    // Same fields-covered accumulation path as the portfolio merge's
    // add_counters: everything funnels through SearchCounters::add.
    result.counters.add(s.counters);
    if (!s.exhausted) result.exhausted = false;
    if (found) {
        for (VertexId v : component_order) solution[v] = s.assignment.at(v);
        for (VertexId v : fixed_order) solution[v] = s.assignment.at(v);
    }
    return found;
}

// ---------------------------------------------------------------------------
// The shipped engine: forward checking, MRV/degree branching, memoized
// evaluation, nogood learning with collection and Luby restarts, and
// conflict-directed backjumping.
// ---------------------------------------------------------------------------

/// One portfolio thread's view of the solve's LiveNogoodExchange:
/// cursor into the shared log, tallies, and the bookkeeping that keeps
/// imported nogoods out of this thread's own-learning accounting (they
/// are neither re-published to the cross-solve pool by this thread —
/// their prover publishes them — nor counted as nogoods_recorded).
/// Owned by solve_single and shared by the thread's per-component
/// searchers, so the cursor survives component boundaries.
struct ExchangeSession {
    LiveNogoodExchange* exchange = nullptr;
    NogoodStore* store = nullptr;  // this thread's own store
    unsigned source = 0;           // this thread's publish tag
    std::size_t cursor = 0;
    std::size_t published = 0;
    std::size_t imported = 0;
    /// Store indices filled by imports, ascending (the store is
    /// append-only, so each import lands at the current tail).
    std::vector<std::uint32_t> imported_ids;

    /// Share a nogood this thread just recorded. `literals` is the
    /// store's canonical copy (stable: the store is a deque).
    void publish_recorded(const std::vector<NogoodLiteral>& literals) {
        if (exchange->publish(source, literals)) ++published;
    }

    /// Drain every entry other threads published since the last import
    /// into this thread's store (the store's dedup drops re-derivations
    /// and cross-thread duplicates). Cheap when nothing is new: one
    /// acquire load.
    void import_new() {
        if (exchange->size() <= cursor) return;
        cursor = exchange->drain(
            cursor, source, kExchangeMaxLiterals,
            [this](const std::vector<NogoodLiteral>& literals) {
                if (store->record(
                        std::vector<NogoodLiteral>(literals))) {
                    ++imported;
                    imported_ids.push_back(static_cast<std::uint32_t>(
                        store->size() - 1));
                }
            });
    }
};

struct FcSearcher {
    FcSearcher(const ChromaticMapProblem& p, const topo::AdjacencyIndex& ix,
               std::size_t budget)
        : problem(p), index(ix), max_backtracks(budget) {}

    const ChromaticMapProblem& problem;
    const topo::AdjacencyIndex& index;
    const std::size_t max_backtracks;
    const exec::CancelToken* cancel = nullptr;
    // The incremental layers, owned by the per-thread driver
    // (solve_single): memoized constraint evaluation, learned
    // conflicts, and the portfolio exchange session (null when
    // single-threaded).
    EvalCache* cache = nullptr;
    NogoodStore* nogoods = nullptr;
    ExchangeSession* session = nullptr;

    /// Outcome of one search() call: a witness below this node, a proven
    /// conflict (conflict_var_ names the variable whose conflict set
    /// describes it), an abort (budget / stop
    /// flag — not a proof, so no conflict set), or a Luby restart (this
    /// run's backtrack allotment ran out; the driver unwinds to the
    /// component root and searches again with the learned nogoods —
    /// unlike kAbort it does NOT clear `exhausted`, because the next
    /// run finishes the proof).
    enum class Status { kFound, kConflict, kAbort, kRestart };

    struct Var {
        VertexId v = 0;
        VertexId value = 0;            // current value, valid iff assigned
        std::uint32_t degree = 0;      // 1-skeleton degree (MRV tie-break)
        std::vector<VertexId> values;  // initial order, never reordered
        std::vector<char> active;      // live-domain flags, trail-restored
        // The constraint that pruned values[i] (null while active). Read
        // only for inactive values, whose pruning frames are still on
        // the stack — so the constraint's other vertices are still
        // assigned to the values that caused the conflict.
        std::vector<const Simplex*> pruned_by;
        std::size_t active_count = 0;
        bool assigned = false;
        bool is_fixed = false;
        // Word-packed mirror of `active`, kept in lockstep by
        // prune()/undo_to(): the FC mask filter intersects it with the
        // memoized allowed mask 64 values at a time instead of testing
        // every value byte-by-byte. Last member so the positional
        // aggregate initializers above it stay valid.
        std::vector<std::uint64_t> active_bits;
    };
    static constexpr std::uint32_t kNoVar = 0xffffffffu;
    std::vector<Var> vars;  // fixed vertices first, then the component's
                            // free vertices in static order
    std::unordered_map<VertexId, std::size_t> var_index;
    // Dense mirror of var_index for the hot constraint scans (vertex ids
    // are bounded by the domain complex); kNoVar for out-of-scope ids.
    std::vector<std::uint32_t> var_of_vertex;
    // Undo log of domain prunings: (variable index, value index).
    std::vector<std::pair<std::size_t, std::size_t>> trail;
    SearchCounters counters;
    bool exhausted = true;
    std::vector<VertexId> image_scratch;  // reused across evaluations
    // Deferred forward-checking work of one try_assign: (constraint,
    // index of its single unassigned vertex). Member so the buffer is
    // allocated once, not per node; valid only within the call that
    // filled it (nothing assigns between the fill and the drain).
    std::vector<std::pair<const Simplex*, std::uint32_t>> fc_pending;

    // Luby restart state, driven by fc_solve_component: once the
    // current run's backtracks reach restart_limit, search() unwinds
    // with Status::kRestart.
    std::size_t restart_limit = 0;
    std::size_t run_start_backtracks = 0;

    // Conflict-directed backjumping state: one conflict set per
    // variable, as a bitset over var indices. conf(v) accumulates,
    // while v is the active decision, every variable whose
    // assignment contributed to a failure of one of v's values; when v's
    // values are exhausted, conf(v) is the proven conflict of the whole
    // level, and ancestors absent from it are jumped over. Fixed
    // variables are per-solve constants and never enter a conflict set.
    std::size_t conflict_words = 0;
    std::vector<std::vector<std::uint64_t>> conflict_;  // per variable
    std::vector<std::uint64_t> assign_conflict_;  // try_assign's failure
    std::size_t conflict_var_ = 0;  // owner of the active conflict set

    // The unassigned vars, maintained by swap-removal so the MRV scan
    // touches only live candidates instead of every variable per node.
    std::vector<std::uint32_t> unassigned;
    std::vector<std::uint32_t> unassigned_pos;  // index into `unassigned`

    /// Build var_of_vertex and the unassigned list; call once after
    /// `vars` is fully populated and pre-assignments are installed.
    void finalize_vars() {
        VertexId max_v = 0;
        for (const Var& var : vars) max_v = std::max(max_v, var.v);
        var_of_vertex.assign(static_cast<std::size_t>(max_v) + 1, kNoVar);
        for (std::size_t i = 0; i < vars.size(); ++i) {
            var_of_vertex[vars[i].v] = static_cast<std::uint32_t>(i);
        }
        unassigned.clear();
        unassigned_pos.assign(vars.size(), kNoVar);
        for (std::size_t i = 0; i < vars.size(); ++i) {
            vars[i].degree =
                static_cast<std::uint32_t>(index.degree(vars[i].v));
            if (!vars[i].assigned) {
                unassigned_pos[i] =
                    static_cast<std::uint32_t>(unassigned.size());
                unassigned.push_back(static_cast<std::uint32_t>(i));
            }
        }
        conflict_words = (vars.size() + 63) / 64;
        conflict_.assign(vars.size(),
                         std::vector<std::uint64_t>(conflict_words, 0));
        assign_conflict_.assign(conflict_words, 0);
    }

    // --- conflict-set plumbing -----------------------------------------

    void conflict_add(std::vector<std::uint64_t>& set,
                      std::size_t var_idx) const {
        if (vars[var_idx].is_fixed) return;
        set[var_idx >> 6] |= std::uint64_t{1} << (var_idx & 63);
    }

    bool conflict_contains(const std::vector<std::uint64_t>& set,
                           std::size_t var_idx) const {
        return (set[var_idx >> 6] >> (var_idx & 63) & 1) != 0;
    }

    /// into |= from \ {excluded}.
    void conflict_merge(std::vector<std::uint64_t>& into,
                        const std::vector<std::uint64_t>& from,
                        std::size_t excluded) const {
        for (std::size_t w = 0; w < conflict_words; ++w) into[w] |= from[w];
        into[excluded >> 6] &= ~(std::uint64_t{1} << (excluded & 63));
    }

    /// The assigned variables of a pruning/violated constraint, minus
    /// the two local actors (the decision being enumerated and, for
    /// wipeouts, the wiped variable itself).
    void conflict_add_constraint(std::vector<std::uint64_t>& set,
                                 const Simplex& sigma, std::size_t skip_a,
                                 std::size_t skip_b) const {
        for (VertexId u : sigma.vertices()) {
            const std::size_t ui = var_of_vertex[u];
            if (ui == skip_a || ui == skip_b) continue;
            conflict_add(set, ui);
        }
    }

    /// Conservative fallback when a pruning cause is unavailable: blame
    /// every assigned decision, which degrades that one conflict to
    /// chronological behavior without losing soundness.
    void conflict_add_all_assigned(std::vector<std::uint64_t>& set,
                                   std::size_t skip_a,
                                   std::size_t skip_b) const {
        for (std::size_t i = 0; i < vars.size(); ++i) {
            if (!vars[i].assigned || i == skip_a || i == skip_b) continue;
            conflict_add(set, i);
        }
    }

    /// Fill assign_conflict_ with the cause of a violated constraint.
    void conflict_from_violation(const Simplex& sigma,
                                 std::size_t cur_idx) {
        std::fill(assign_conflict_.begin(), assign_conflict_.end(), 0);
        conflict_add_constraint(assign_conflict_, sigma, cur_idx, cur_idx);
    }

    /// Record one proven conflict and, when the portfolio exchange is
    /// live, share it with the racing threads immediately (the
    /// published copy is the store's canonical literal vector — a deque
    /// element, so the reference is stable even while other imports
    /// keep appending).
    void learn(std::vector<NogoodLiteral> literals) {
        if (!nogoods->record(std::move(literals))) return;
        ++counters.nogoods_recorded;
        if (session != nullptr) {
            session->publish_recorded(nogoods->all().back());
        }
    }

    /// Pull the other portfolio threads' freshly proven conflicts into
    /// this thread's store. Called at every backtrack landing — which
    /// covers backjump landings too: a jump unwinds through the same
    /// value loop — and at each component start (the restart point).
    void maybe_import() {
        if (session != nullptr) session->import_new();
    }

    /// Learn an exhausted level's conflict set as a nogood: every value
    /// of the level's variable failed under exactly the assignments the
    /// set names, and a satisfying map must assign the variable, so the
    /// named assignments are jointly contradictory — the CDCL-style
    /// "learned clause" on top of the wipeout/violation records.
    void record_conflict_set(const std::vector<std::uint64_t>& set) {
        std::vector<NogoodLiteral> literals;
        for (std::size_t w = 0; w < conflict_words; ++w) {
            std::uint64_t bits = set[w];
            while (bits != 0) {
                const std::size_t u_idx =
                    (w << 6) + static_cast<std::size_t>(
                                   __builtin_ctzll(bits));
                bits &= bits - 1;
                const Var& u = vars[u_idx];
                literals.push_back({u.v, u.value});
            }
        }
        learn(std::move(literals));
    }

    /// Fill assign_conflict_ with the cause of a domain wipeout of
    /// `u_idx`: the assignments behind every pruned value (the same
    /// provenance record_wipeout turns into a nogood).
    void conflict_from_wipeout(std::size_t u_idx, std::size_t cur_idx) {
        std::fill(assign_conflict_.begin(), assign_conflict_.end(), 0);
        const Var& u = vars[u_idx];
        for (std::size_t i = 0; i < u.values.size(); ++i) {
            if (u.active[i]) continue;
            const Simplex* sigma = u.pruned_by[i];
            if (sigma == nullptr) {
                conflict_add_all_assigned(assign_conflict_, u_idx, cur_idx);
                return;
            }
            conflict_add_constraint(assign_conflict_, *sigma, u_idx,
                                    cur_idx);
        }
    }

    void mark_assigned(std::size_t var_idx) {
        const std::uint32_t pos = unassigned_pos[var_idx];
        const std::uint32_t last = unassigned.back();
        unassigned[pos] = last;
        unassigned_pos[last] = pos;
        unassigned.pop_back();
        unassigned_pos[var_idx] = kNoVar;
    }

    void mark_unassigned(std::size_t var_idx) {
        unassigned_pos[var_idx] =
            static_cast<std::uint32_t>(unassigned.size());
        unassigned.push_back(static_cast<std::uint32_t>(var_idx));
    }

    std::uint32_t var_at(VertexId u) const {
        return u < var_of_vertex.size() ? var_of_vertex[u] : kNoVar;
    }

    bool stopped() const { return is_cancelled(cancel); }

    /// Leaf constraint check for a fully assigned indexed simplex, via
    /// the evaluation memo.
    bool constraint_holds(const Simplex* sigma_ptr) {
        const Simplex& sigma = *sigma_ptr;
        image_scratch.clear();
        for (VertexId v : sigma.vertices()) {
            image_scratch.push_back(vars[var_of_vertex[v]].value);
        }
        return cache->image_allowed(problem, index.id_of(sigma_ptr), sigma,
                                    image_scratch);
    }

    /// Reset a variable's live-domain state to "everything active".
    static void activate_all(Var& var) {
        const std::size_t n = var.values.size();
        var.active.assign(n, 1);
        var.pruned_by.assign(n, nullptr);
        var.active_count = n;
        var.active_bits.assign((n + 63) / 64, 0);
        for (std::size_t i = 0; i < n; ++i) {
            var.active_bits[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
    }

    void prune(std::size_t var_idx, std::size_t value_idx,
               const Simplex* cause) {
        vars[var_idx].active[value_idx] = 0;
        vars[var_idx].active_bits[value_idx >> 6] &=
            ~(std::uint64_t{1} << (value_idx & 63));
        vars[var_idx].pruned_by[value_idx] = cause;
        --vars[var_idx].active_count;
        trail.emplace_back(var_idx, value_idx);
    }

    /// Record the conflict set of a fully-assigned constraint violation:
    /// the simplex's own assignments (fixed vertices excluded — their
    /// values are per-solve constants, so they can never differ when the
    /// nogood fires).
    void record_violation(const Simplex& sigma) {
        std::vector<NogoodLiteral> literals;
        literals.reserve(sigma.size());
        for (VertexId u : sigma.vertices()) {
            const Var& uvar = vars[var_of_vertex[u]];
            if (uvar.is_fixed) continue;
            literals.push_back({u, uvar.value});
        }
        learn(std::move(literals));
    }

    /// Record the conflict set of a domain wipeout of `u_idx`: for every
    /// pruned value, the assignments of its pruning constraint's other
    /// vertices. Under exactly these assignments every value of the
    /// (root-propagated, branch-independent) domain is excluded, so the
    /// set is a sound nogood regardless of assignment order.
    void record_wipeout(std::size_t u_idx) {
        const Var& u = vars[u_idx];
        std::vector<NogoodLiteral> literals;
        for (std::size_t i = 0; i < u.values.size(); ++i) {
            if (u.active[i]) continue;
            const Simplex* sigma = u.pruned_by[i];
            if (sigma == nullptr) return;  // cause lost; skip recording
            for (VertexId w : sigma->vertices()) {
                const Var& wvar = vars[var_of_vertex[w]];
                if (w == u.v || wvar.is_fixed) continue;
                literals.push_back({w, wvar.value});
            }
        }
        learn(std::move(literals));
    }

    void undo_to(std::size_t mark) {
        while (trail.size() > mark) {
            const auto [var_idx, value_idx] = trail.back();
            trail.pop_back();
            vars[var_idx].active[value_idx] = 1;
            vars[var_idx].active_bits[value_idx >> 6] |=
                std::uint64_t{1} << (value_idx & 63);
            ++vars[var_idx].active_count;
        }
    }

    /// Assign v := w and propagate: completed constraints are checked, and
    /// every in-scope constraint one vertex short of completion filters
    /// that vertex's live domain. Returns
    /// false on a violated constraint or a domain wipeout (the caller must
    /// undo_to its own trail mark either way).
    ///
    /// Two passes over the incident constraints. Pass 1 classifies and
    /// immediately checks every completed (leaf) constraint — the
    /// admissible bound test of this branch: each check is one memo
    /// probe, writes nothing, and a violation rejects the assignment
    /// before any forward-checking work (domain writes + trail entries
    /// + their undo) is paid for. Pass 2 runs the deferred FC filters.
    /// Relative order within each class is the incident order, so the
    /// prune sequence is deterministic; leaf-before-filter only changes
    /// WHICH sound conflict a doomed assignment fails on (and hence
    /// which nogood is learned), never whether it fails — verdicts and
    /// witnesses are untouched.
    bool try_assign(std::size_t var_idx, VertexId w) {
        Var& var = vars[var_idx];
        var.assigned = true;
        var.value = w;
        mark_assigned(var_idx);
        fc_pending.clear();
        for (const Simplex* sigma_ptr : index.incident_simplices(var.v)) {
            const Simplex& sigma = *sigma_ptr;
            std::uint32_t unassigned_idx = kNoVar;
            std::size_t num_unassigned = 0;
            bool in_scope = true;
            for (VertexId u : sigma.vertices()) {
                const std::uint32_t ui = var_at(u);
                if (ui == kNoVar) {
                    in_scope = false;
                    break;
                }
                if (!vars[ui].assigned) {
                    unassigned_idx = ui;
                    if (++num_unassigned > 1) break;
                }
            }
            if (!in_scope) continue;
            if (num_unassigned == 0) {
                if (!constraint_holds(sigma_ptr)) {
                    record_violation(sigma);
                    conflict_from_violation(sigma, var_idx);
                    return false;
                }
            } else if (num_unassigned == 1) {
                fc_pending.emplace_back(sigma_ptr, unassigned_idx);
            }
        }
        for (const auto& [sigma_ptr, u_idx32] : fc_pending) {
            const Simplex& sigma = *sigma_ptr;
            const std::size_t u_idx = u_idx32;
            Var& uvar = vars[u_idx];
            // The constraint complex and the assigned part of the
            // image are fixed across the candidate loop; build the
            // image once with a hole at the unassigned slot.
            std::vector<VertexId>& image = image_scratch;
            image.clear();
            std::size_t u_slot = 0;
            for (std::size_t j = 0; j < sigma.vertices().size(); ++j) {
                const VertexId u = sigma.vertices()[j];
                if (u == uvar.v) {
                    u_slot = j;
                    image.push_back(EvalCache::kHole);
                } else {
                    image.push_back(vars[var_of_vertex[u]].value);
                }
            }
            // One memoized lookup filters the whole candidate list: the
            // mask is keyed by the neighborhood-image fingerprint (cid +
            // assigned values + hole). The filter itself is the
            // word-wise pass `live & ~allowed` over the packed domain —
            // only the values actually being pruned cost anything beyond
            // one AND-NOT per 64 candidates (ctz walks the remainder in
            // ascending index order).
            const std::vector<std::uint64_t>& mask =
                cache->allowed_mask(problem, index.id_of(sigma_ptr),
                                    sigma, image, u_slot, uvar.values);
            const std::size_t words = uvar.active_bits.size();
            for (std::size_t wd = 0; wd < words; ++wd) {
                std::uint64_t removed = uvar.active_bits[wd] & ~mask[wd];
                while (removed != 0) {
                    const std::size_t i =
                        (wd << 6) + static_cast<std::size_t>(
                                        __builtin_ctzll(removed));
                    removed &= removed - 1;
                    prune(u_idx, i, sigma_ptr);
                }
            }
            if (uvar.active_count == 0) {
                record_wipeout(u_idx);
                conflict_from_wipeout(u_idx, var_idx);
                return false;
            }
        }
        return true;
    }

    void unassign(std::size_t var_idx) {
        vars[var_idx].assigned = false;
        mark_unassigned(var_idx);
    }

    /// Dense assignment view for the nogood store.
    bool value_of(VertexId u, VertexId& out) const {
        const std::uint32_t ui = var_at(u);
        if (ui == kNoVar || !vars[ui].assigned) return false;
        out = vars[ui].value;
        return true;
    }

    /// The next branching variable: the MRV/degree/id minimum over the
    /// live unassigned list (the criterion is a total order, so the
    /// list's arbitrary order picks the same variable a full scan
    /// would). Returns vars.size() when all assigned.
    std::size_t pick_variable() const {
        std::size_t best = vars.size();
        for (const std::uint32_t i : unassigned) {
            const Var& var = vars[i];
            if (best == vars.size()) {
                best = i;
                continue;
            }
            const Var& b = vars[best];
            if (var.active_count != b.active_count) {
                if (var.active_count < b.active_count) best = i;
            } else if (var.degree != b.degree) {
                if (var.degree > b.degree) best = i;
            } else if (var.v < b.v) {
                best = i;
            }
        }
        return best;
    }

    Status search() {
        if (stopped()) {
            exhausted = false;
            return Status::kAbort;
        }
        const std::size_t var_idx = pick_variable();
        if (var_idx == vars.size()) return Status::kFound;
        Var& var = vars[var_idx];
        std::vector<std::uint64_t>& conf = conflict_[var_idx];
        std::fill(conf.begin(), conf.end(), 0);
        for (std::size_t i = 0; i < var.values.size(); ++i) {
            if (!var.active[i]) {
                // The value is unavailable because an ancestor's
                // constraint pruned it; that ancestor could restore it,
                // so it belongs in this level's conflict set.
                const Simplex* cause = var.pruned_by[i];
                if (cause == nullptr) {
                    conflict_add_all_assigned(conf, var_idx, var_idx);
                } else {
                    conflict_add_constraint(conf, *cause, var_idx, var_idx);
                }
                continue;
            }
            if (!nogoods->empty()) {
                const std::vector<NogoodLiteral>* blocking =
                    nogoods->blocking_nogood(
                        var.v, var.values[i],
                        [this](VertexId u, VertexId& out) {
                            return value_of(u, out);
                        });
                if (blocking != nullptr) {
                    // This assignment would recreate a recorded
                    // conflict: skip it without redoing the propagation
                    // that proved it (not counted as a backtrack —
                    // prunings are reported separately so ablation
                    // counts stay comparable). The nogood's other
                    // literals name the decisions responsible.
                    ++counters.nogood_prunings;
                    for (const NogoodLiteral& l : *blocking) {
                        if (l.var == var.v) continue;
                        conflict_add(conf, var_of_vertex[l.var]);
                    }
                    continue;
                }
            }
            const std::size_t mark = trail.size();
            if (try_assign(var_idx, var.values[i])) {
                const Status st = search();
                if (st == Status::kFound) return st;
                if (st == Status::kAbort || st == Status::kRestart) {
                    // Both unwind the whole tree; only kAbort is final
                    // (kRestart keeps `exhausted` — the next run
                    // finishes the proof with today's nogoods).
                    undo_to(mark);
                    unassign(var_idx);
                    return st;
                }
                // A proven conflict below. If this decision is not in
                // its conflict set, no other value of this variable can
                // resolve it: pop the level without re-enumerating
                // (the backjump), propagating the same conflict.
                if (!conflict_contains(conflict_[conflict_var_], var_idx)) {
                    undo_to(mark);
                    unassign(var_idx);
                    ++counters.backjumps;
                    return Status::kConflict;
                }
                conflict_merge(conf, conflict_[conflict_var_], var_idx);
            } else {
                // try_assign failed directly; it left the cause in
                // assign_conflict_.
                conflict_merge(conf, assign_conflict_, var_idx);
            }
            undo_to(mark);
            unassign(var_idx);
            if (++counters.backtracks > max_backtracks ||
                stopped()) {
                exhausted = false;
                return Status::kAbort;
            }
            // This run's Luby allotment. Checked after the global
            // budget: restarts reschedule the budget, never extend it.
            if (counters.backtracks - run_start_backtracks >=
                restart_limit) {
                return Status::kRestart;
            }
            // A backtrack (or a backjump landing) is the natural moment
            // to pick up what the other portfolio threads proved while
            // this subtree was being refuted: the next value tried here
            // immediately benefits. One relaxed check when idle.
            maybe_import();
        }
        if (exhausted) record_conflict_set(conf);
        conflict_var_ = var_idx;
        return Status::kConflict;
    }
};

/// How root propagation ended.
enum class RootOutcome { kPropagated, kConflict, kCancelled };

/// Root propagation of the fixed assignments, done once per solve: they
/// are not search decisions, so a conflict here proves unsatisfiability
/// outright, and the pruning they induce on the free domains is the same
/// for every free-vertex component and every portfolio thread. Computed
/// directly as its fixed point, one sharded unit per vertex u: u keeps
/// the base values c that pass, for every incident simplex whose other
/// vertices are all fixed, the image test (the image, with c at u, is a
/// codomain simplex inside allowed(sigma)). A fixed u tests only the
/// simplices it is the largest vertex of, so each all-fixed simplex is
/// checked once. A free u's base values are already equal or adjacent
/// to every fixed neighbour's image (all_initial_domains), which is all
/// a cheap adjacency pre-filter could reject here. Any empty domain is
/// a conflict (no map exists): a fixed vertex whose value failed, and a
/// free vertex with no candidate left, filtered or not. So on
/// kPropagated every domain is non-empty and a fixed vertex's domain is
/// exactly its value, which the search (fc_solve_component) relies on.
/// This is what assigning the fixed vertices one by one with forward
/// checking computes: each simplex with exactly one unassigned vertex
/// filters it exactly once (when its last fixed vertex is assigned),
/// and the filters commute. On kPropagated, `pruned` holds every
/// vertex's domain in base order. Polls `cancel` once per vertex and
/// once after the pass; a cancelled pass is kCancelled even if a unit
/// found a conflict.
RootOutcome propagate_fixed_snapshot(const ChromaticMapProblem& problem,
                                     const topo::AdjacencyIndex& index,
                                     const std::vector<VertexId>& vertices,
                                     const FixedValues& fixed,
                                     const DomainMap& base_domains,
                                     const exec::CancelToken* cancel,
                                     DomainMap& pruned) {
    if (problem.fixed.empty()) {
        for (const auto& [v, values] : base_domains) {
            if (values.empty()) return RootOutcome::kConflict;
        }
        pruned = base_domains;
        return RootOutcome::kPropagated;
    }
    std::vector<std::vector<VertexId>> live(vertices.size());
    std::atomic<bool> conflict{false};
    for_each_vertex(vertices.size(), [&](std::size_t i) {
        if (is_cancelled(cancel) || conflict) return;
        const VertexId u = vertices[i];
        const bool u_fixed = fixed.is_fixed[u] != 0;
        std::vector<VertexId> values = base_domains.at(u);
        std::vector<VertexId> image;
        for (const Simplex* sigma : index.incident_simplices(u)) {
            if (values.empty()) break;
            if (u_fixed && sigma->vertices().back() != u) continue;
            image.clear();
            std::size_t hole = 0;
            for (VertexId x : sigma->vertices()) {
                if (x == u) {
                    hole = image.size();
                    image.push_back(u);  // overwritten per candidate
                } else if (fixed.is_fixed[x] != 0) {
                    image.push_back(fixed.value[x]);
                } else {
                    break;
                }
            }
            if (image.size() != sigma->size()) continue;
            const SimplicialComplex* allowed = nullptr;
            std::erase_if(values, [&](VertexId c) {
                image[hole] = c;
                const Simplex img(image);
                if (!problem.codomain->contains(img)) return true;
                if (allowed == nullptr) allowed = &problem.allowed(*sigma);
                return !allowed->contains(img);
            });
        }
        if (values.empty()) {
            conflict = true;
            return;
        }
        live[i] = std::move(values);
    });
    if (is_cancelled(cancel)) return RootOutcome::kCancelled;
    if (conflict) return RootOutcome::kConflict;
    pruned.clear();
    pruned.reserve(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        pruned.emplace(vertices[i], std::move(live[i]));
    }
    return RootOutcome::kPropagated;
}

/// The Luby restart sequence, 1-indexed: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2,
/// 1, 1, 2, 4, 8, ... — the universal-optimal schedule for restarting a
/// Las-Vegas search (Luby, Sinclair, Zuckerman 1993). luby(i) scales
/// kRestartUnit into the i-th run's backtrack allotment.
std::size_t luby(std::size_t i) {
    for (;;) {
        // Find the block: if i is exactly 2^k - 1 the value is 2^(k-1);
        // otherwise recurse into the tail of the enclosing block.
        std::size_t k = 1;
        while ((std::size_t{1} << k) - 1 < i) ++k;
        if ((std::size_t{1} << k) - 1 == i) {
            return std::size_t{1} << (k - 1);
        }
        i -= (std::size_t{1} << (k - 1)) - 1;
    }
}

bool fc_solve_component(const ChromaticMapProblem& problem,
                        const topo::AdjacencyIndex& index,
                        const DomainMap& propagated_domains,
                        const SolverConfig& config,
                        const std::vector<VertexId>& fixed_order,
                        const std::vector<VertexId>& component_order,
                        std::uint64_t shuffle_salt,
                        const exec::CancelToken* cancel,
                        EvalCache* cache, NogoodStore* nogoods,
                        ExchangeSession* session,
                        ChromaticMapResult& result,
                        std::unordered_map<VertexId, VertexId>& solution) {
    FcSearcher s(problem, index, config.max_backtracks);
    s.cancel = cancel;
    s.cache = cache;
    s.nogoods = nogoods;
    s.session = session;
    for (VertexId v : fixed_order) {
        s.var_index[v] = s.vars.size();
        s.vars.push_back({v, 0, 0, {}, {}, {}, 0, false, true, {}});
    }
    for (VertexId v : component_order) {
        s.var_index[v] = s.vars.size();
        s.vars.push_back({v, 0, 0, {}, {}, {}, 0, false, false, {}});
    }

    // The search assumes root propagation ran: no domain is empty, and a
    // fixed vertex's domain is exactly its value (propagate_fixed_snapshot
    // guarantees both, or reports kConflict). Without them it would read
    // an empty domain or keep a violated all-fixed simplex.
    std::mt19937_64 rng(config.seed ^ shuffle_salt);
    for (FcSearcher::Var& var : s.vars) {
        var.values = propagated_domains.at(var.v);
        ensure(!var.values.empty(),
               "solve_chromatic_map: search handed an empty domain");
        ensure(!var.is_fixed ||
                   (var.values.size() == 1 &&
                    var.values.front() == problem.fixed.at(var.v)),
               "solve_chromatic_map: search handed an unpropagated fixed "
               "vertex");
        if (config.value_order == ValueOrder::kShuffled && !var.is_fixed) {
            std::shuffle(var.values.begin(), var.values.end(), rng);
        }
        FcSearcher::activate_all(var);
    }

    // The fixed assignments were validated and propagated into
    // `propagated_domains` once, up front (propagate_fixed_snapshot), so
    // just install them (before finalize_vars, which snapshots the
    // unassigned list from the assigned flags).
    for (VertexId v : fixed_order) {
        FcSearcher::Var& var = s.vars[s.var_index.at(v)];
        var.assigned = true;
        var.value = var.values.front();
    }
    s.finalize_vars();

    // The component start is the restart point of the exchange: pick up
    // everything the other threads proved before descending at all. It
    // is also a reference-free safe point, so retired nogood buffers
    // from the previous component can be physically reclaimed.
    nogoods->reclaim();
    s.maybe_import();

    // Luby restarts: each run gets luby(i) * kRestartUnit backtracks; on
    // kRestart the searcher has
    // fully unwound to this root, so re-descending with the retained
    // store — now holding everything this run and the exchange peers
    // proved — is the same deterministic DFS with strictly more sound
    // pruning: same first witness, same exhaustion verdict, fewer
    // re-derived conflicts. The global max_backtracks budget keeps
    // ticking across runs, so termination is unchanged.
    FcSearcher::Status status;
    for (std::size_t run = 1;; ++run) {
        s.restart_limit = luby(run) * kRestartUnit;
        s.run_start_backtracks = s.counters.backtracks;
        status = s.search();
        if (status != FcSearcher::Status::kRestart) break;
        ++s.counters.restarts;
        // Unwound to the root: no blocking_nogood()/back() reference is
        // live, so this is the other designated reclaim point.
        nogoods->reclaim();
        s.maybe_import();
    }
    const bool found = status == FcSearcher::Status::kFound;
    result.counters.add(s.counters);
    if (!s.exhausted) result.exhausted = false;
    if (found) {
        for (VertexId v : component_order) {
            solution[v] = s.vars[s.var_index.at(v)].value;
        }
        for (VertexId v : fixed_order) {
            solution[v] = s.vars[s.var_index.at(v)].value;
        }
    }
    return found;
}

// ---------------------------------------------------------------------------
// Single-threaded driver: decomposition + engine dispatch.
// ---------------------------------------------------------------------------

ChromaticMapResult solve_single(const ChromaticMapProblem& problem,
                                const topo::AdjacencyIndex& index,
                                const Decomposition& dec,
                                const DomainMap& base_domains,
                                const DomainMap& propagated_domains,
                                const SolverConfig& config,
                                std::uint64_t shuffle_salt,
                                const exec::CancelToken* cancel,
                                LiveNogoodExchange* exchange = nullptr,
                                unsigned thread_id = 0) {
    ChromaticMapResult result;
    result.exhausted = true;
    std::unordered_map<VertexId, VertexId> solution;

    const bool naive_engine = config.naive_engine;

    // The incremental layers are per-thread (no locking) and shared
    // across the thread's components: constraint ids are global to the
    // domain complex, and nogoods from one component mention variables
    // disjoint from every other component's, so sharing is sound.
    std::optional<EvalCache> cache;
    if (!naive_engine) {
        cache.emplace(index.indexed_simplex_count(), kEvalCacheCapacity);
    }
    // Cross-solve reuse: when the problem builder wired a SharedNogoodPool,
    // import every pool nogood whose variables all translate into the
    // current domain (via the builder's stable (position, color) keys),
    // and publish this solve's newly learned nogoods on the way out. The
    // store is sized so seeded entries do not consume the learning
    // budget. Reused nogoods only prune, so seeding changes backtrack
    // counts, never verdicts or witnesses.
    const bool use_pool = !naive_engine && problem.nogood_pool != nullptr &&
                          !problem.nogood_scope.empty() &&
                          static_cast<bool>(problem.pool_var_key);
    // One vertex -> pool-key table per solve, built lazily (each
    // pool_var_key call takes the pool's mutex for an exact-rational map
    // probe — worth paying once, not per literal) and shared by the seed
    // and publish translations below. Untouched when the scope is empty
    // and nothing gets learned.
    std::optional<std::unordered_map<VertexId, SharedNogoodPool::VarKeyId>>
        key_of_vertex;
    const auto pool_keys = [&]() -> const auto& {
        if (!key_of_vertex.has_value()) {
            key_of_vertex.emplace();
            key_of_vertex->reserve(problem.domain->vertex_ids().size());
            for (VertexId v : problem.domain->vertex_ids()) {
                key_of_vertex->emplace(v, problem.pool_var_key(v));
            }
        }
        return *key_of_vertex;
    };
    std::optional<NogoodStore> nogoods;
    std::size_t seeded = 0;
    if (!naive_engine) {
        std::vector<std::vector<NogoodLiteral>> seeds;
        // An empty scope has nothing to import: skip the key translation
        // outright on the cold first solve.
        if (use_pool &&
            problem.nogood_pool->size(problem.nogood_scope) > 0) {
            std::unordered_map<SharedNogoodPool::VarKeyId, VertexId>
                vertex_of_key;
            vertex_of_key.reserve(pool_keys().size());
            for (const auto& [v, key] : pool_keys()) {
                vertex_of_key.emplace(key, v);
            }
            problem.nogood_pool->for_each(
                problem.nogood_scope,
                [&](const std::vector<SharedNogoodPool::PortableLiteral>&
                        portable) {
                    std::vector<NogoodLiteral> literals;
                    literals.reserve(portable.size());
                    for (const SharedNogoodPool::PortableLiteral& l :
                         portable) {
                        const auto it = vertex_of_key.find(l.var_key);
                        if (it == vertex_of_key.end()) return;  // untranslatable
                        literals.push_back({it->second, l.value});
                    }
                    seeds.push_back(std::move(literals));
                });
        }
        // The store collects when full — the capacity bounds the live
        // set, not the learning. Seeds are not exempt from eviction: a
        // seed that never fires is exactly the kind of ballast GC exists
        // to shed.
        nogoods.emplace(kNogoodCapacity + seeds.size());
        for (std::vector<NogoodLiteral>& s : seeds) {
            if (nogoods->record(std::move(s))) ++seeded;
        }
    }

    // Mid-flight portfolio exchange (the per-thread view of the shared
    // log solve_chromatic_map created): only meaningful when this
    // thread actually learns. Imports land in the same bounded store as
    // the thread's own learning; their indices are remembered so the
    // cross-solve pool publish below stays "each thread publishes what
    // it proved" and nogoods_recorded stays own-learning only.
    std::optional<ExchangeSession> session;
    if (exchange != nullptr && nogoods.has_value()) {
        session.emplace();
        session->exchange = exchange;
        session->store = &*nogoods;
        session->source = thread_id;
    }

    const auto solve_component =
        [&](const std::vector<VertexId>& component_order) {
            if (naive_engine) {
                // The seed baseline, preserved verbatim: raw domains,
                // fixed vertices re-validated through the ordinary
                // constraint checks.
                return naive_solve_component(problem, base_domains,
                                             dec.fixed_order, component_order,
                                             config.max_backtracks, cancel,
                                             result, solution);
            }
            return fc_solve_component(
                problem, index, propagated_domains, config, dec.fixed_order,
                component_order, shuffle_salt, cancel,
                cache.has_value() ? &*cache : nullptr,
                nogoods.has_value() ? &*nogoods : nullptr,
                session.has_value() ? &*session : nullptr, result, solution);
        };

    // The fixed-only subproblem validates the pre-assignment itself.
    bool found = solve_component({});
    if (found) {
        for (const std::vector<VertexId>& order : dec.component_orders) {
            if (!solve_component(order)) {
                found = false;
                break;
            }
        }
    }

    if (cache.has_value()) {
        result.counters.eval_cache_hits = cache->stats().hits();
        result.counters.eval_cache_misses = cache->stats().misses();
    }
    if (nogoods.has_value()) {
        // nogoods_recorded was tallied at each learn() (seeds and
        // exchange imports never pass through it); here only the
        // session totals and the cross-solve publish remain.
        result.counters.pool_seeded = seeded;
        result.counters.nogoods_evicted = nogoods->evicted();
        if (session.has_value()) {
            result.counters.exchange_published = session->published;
            result.counters.exchange_imported = session->imported;
        }
        if (use_pool) {
            // Publish this thread's own learning: seeds sit at the
            // front of the append-only store; exchange imports are
            // interleaved after them and are skipped — their proving
            // thread publishes them (imported_ids is ascending, so one
            // forward scan pairs with the index walk).
            const auto& all = nogoods->all();
            const std::vector<std::uint32_t> no_imports;
            const std::vector<std::uint32_t>& imported_ids =
                session.has_value() ? session->imported_ids : no_imports;
            std::size_t next_import = 0;
            for (std::size_t i = seeded; i < all.size(); ++i) {
                while (next_import < imported_ids.size() &&
                       imported_ids[next_import] < i) {
                    ++next_import;
                }
                if (next_import < imported_ids.size() &&
                    imported_ids[next_import] == i) {
                    continue;
                }
                // Retired-and-reclaimed slots are empty vectors; an
                // empty literal set must never reach the pool (it would
                // read as "everything is contradictory").
                if (all[i].empty()) continue;
                std::vector<SharedNogoodPool::PortableLiteral> portable;
                portable.reserve(all[i].size());
                for (const NogoodLiteral& l : all[i]) {
                    portable.push_back({pool_keys().at(l.var), l.value});
                }
                if (problem.nogood_pool->publish(problem.nogood_scope,
                                                 std::move(portable))) {
                    ++result.counters.pool_published;
                }
            }
        }
    }

    if (found) result.map = SimplicialMap(std::move(solution));
    return result;
}

}  // namespace

ChromaticMapResult solve_chromatic_map(const ChromaticMapProblem& problem,
                                       const SolverConfig& config) {
    require(problem.domain != nullptr && problem.codomain != nullptr,
            "solve_chromatic_map: missing complexes");
    require(static_cast<bool>(problem.allowed),
            "solve_chromatic_map: missing constraint function");
    require(config.num_threads >= 1,
            "solve_chromatic_map: num_threads must be >= 1");

    // The per-vertex simplex lists exist for forward checking; the naive
    // engine only needs the neighbor sets for decomposition.
    const topo::AdjacencyIndex index(problem.domain->complex(),
                                     !config.naive_engine);
    const std::vector<VertexId> vertices = problem.domain->vertex_ids();
    const Decomposition dec = decompose(problem, index, vertices);
    const FixedValues fixed(problem, vertices);
    // The codomain's 1-skeleton narrows the shipped engine's candidate
    // pools next to fixed vertices (pool_near_fixed); the naive
    // reference keeps the full pools.
    std::optional<topo::AdjacencyIndex> codomain_adjacency;
    if (!config.naive_engine && !problem.fixed.empty()) {
        codomain_adjacency.emplace(problem.codomain->complex(), false);
    }
    // A set-up cut short by `config.cancel` answers like a cancelled
    // search: no map, not exhausted.
    const std::optional<DomainMap> initial = all_initial_domains(
        problem, index, vertices, fixed,
        codomain_adjacency ? &*codomain_adjacency : nullptr, config.cancel);
    if (!initial.has_value()) return ChromaticMapResult{};
    const DomainMap& base_domains = *initial;

    // Fixed-vertex root propagation, once per solve (shipped engine only;
    // the naive reference keeps the raw domains).
    DomainMap propagated_domains;
    if (!config.naive_engine) {
        switch (propagate_fixed_snapshot(problem, index, vertices, fixed,
                                         base_domains, config.cancel,
                                         propagated_domains)) {
            case RootOutcome::kPropagated:
                break;
            case RootOutcome::kConflict: {
                // An empty domain, or a conflict among the fixed
                // assignments alone, proves unsatisfiability outright
                // (neither is a search decision).
                ChromaticMapResult result;
                result.exhausted = true;
                return result;
            }
            case RootOutcome::kCancelled:
                return ChromaticMapResult{};
        }
    }

    ChromaticMapResult result;
    if (config.num_threads == 1 || config.naive_engine) {
        result = solve_single(problem, index, dec, base_domains,
                              propagated_domains, config, 0, config.cancel);
    } else {
        // Portfolio race, run as a cancellable task group on the
        // resident scheduler (exec/task_group.h): task 0 keeps the
        // configured value order, the others search with per-task
        // shuffles (unless diversify_portfolio is off — then every
        // task runs the identical search and the race only hedges
        // scheduling). A task that either finds a witness or exhausts
        // the search space has settled the problem, so it cancels
        // everyone else. The race token is a CHILD of the caller's
        // token: the caller's deadline stops the race, settling the
        // race never cancels the caller's scope. With live_exchange
        // on, the tasks additionally trade learned nogoods mid-flight
        // through one shared append-only log.
        //
        // Counter audit: the reported result is exactly the settling
        // task's ChromaticMapResult, claimed once under the mutex —
        // never a sum that mixes a settled task's counters with the
        // partially-updated counters of tasks the cancellation
        // interrupted mid-search (such sums double-count work against
        // the settled search and vary with thread count and timing).
        // The token's relaxed ordering is safe: cancellation is
        // advisory (losing tasks only ever do extra work), each
        // `locals[i]` is written by its own task before the group join
        // and read after it, and the claimed result is published under
        // the mutex. Only when *no* task settles (every budget ran
        // out) are counters summed: there is no coherent single-thread
        // story, and the sum is explicitly "total budgeted effort
        // spent".
        exec::CancelToken race =
            config.cancel != nullptr
                ? exec::CancelToken::child_of(*config.cancel)
                : exec::CancelToken();
        std::mutex mutex;
        std::optional<ChromaticMapResult> settled;
        std::vector<ChromaticMapResult> locals(config.num_threads);
        std::vector<std::exception_ptr> errors(config.num_threads);
        // The mid-flight exchange lives exactly as long as the race.
        std::optional<LiveNogoodExchange> exchange;
        if (config.live_exchange) exchange.emplace();
        exec::TaskGroup group;
        for (unsigned i = 0; i < config.num_threads; ++i) {
            group.run([&, i] {
                try {
                    SolverConfig local = config;
                    local.num_threads = 1;
                    local.cancel = &race;
                    if (i > 0 && config.diversify_portfolio) {
                        local.value_order = ValueOrder::kShuffled;
                    }
                    locals[i] =
                        solve_single(problem, index, dec, base_domains,
                                     propagated_domains, local,
                                     0x9e3779b97f4a7c15ULL * i, &race,
                                     exchange.has_value() ? &*exchange
                                                          : nullptr,
                                     i);
                    if (locals[i].map.has_value() || locals[i].exhausted) {
                        {
                            const std::lock_guard<std::mutex> lock(mutex);
                            if (!settled.has_value()) settled = locals[i];
                        }
                        race.cancel();
                    }
                } catch (...) {
                    errors[i] = std::current_exception();
                    race.cancel();
                }
            });
        }
        group.wait();  // the tasks catch everything; errors rethrow below
        for (const std::exception_ptr& e : errors) {
            if (e) std::rethrow_exception(e);
        }
        if (settled.has_value()) {
            // A witness, or a proven exhaustion: either way one thread
            // covered the decisive search space, and its counters are
            // the coherent account of it. (A witness and a no-witness
            // exhaustion cannot both happen: exhaustion means the full
            // space was searched without finding the witness the other
            // thread claims, which check_chromatic_map would expose as
            // a solver bug.)
            result = *settled;
        } else {
            result.exhausted = false;
            // "Total budgeted effort": every counter field accumulates
            // (add_counters covers them all by construction — see the
            // SearchCounters fields-covered check), so a counter added
            // later can never be silently dropped from this merge.
            for (const ChromaticMapResult& r : locals) {
                result.add_counters(r);
            }
        }
    }

    if (result.map.has_value()) {
        const std::string err = check_chromatic_map(problem, *result.map);
        ensure(err.empty(), "solve_chromatic_map: solver bug: " + err);
    }
    return result;
}

std::string check_chromatic_map(const ChromaticMapProblem& problem,
                                const SimplicialMap& map) {
    if (!map.is_simplicial(problem.domain->complex(),
                           problem.codomain->complex())) {
        return "not simplicial";
    }
    if (!map.is_chromatic(*problem.domain, *problem.codomain)) {
        return "not chromatic";
    }
    for (const Simplex& sigma : problem.domain->complex().simplices()) {
        if (!problem.allowed(sigma).contains(map.apply(sigma))) {
            return "image of " + sigma.to_string() +
                   " violates its constraint";
        }
    }
    for (const auto& [v, w] : problem.fixed) {
        if (map.apply(v) != w) {
            return "fixed vertex " + std::to_string(v) + " not respected";
        }
    }
    return "";
}

}  // namespace gact::core
