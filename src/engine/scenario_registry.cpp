#include "engine/scenario_registry.h"

#include <algorithm>

#include "util/require.h"

namespace gact::engine {

namespace {

ScenarioRegistry build_standard() {
    ScenarioRegistry r;
    for (const ScenarioFamily& f : standard_families()) r.add_family(f);

    // --- The 12 legacy names, as aliases through the families. Each
    // resolves to the family instance its canonical spelling parses to,
    // so the hand-written descriptions survive while the construction
    // itself lives in exactly one place (the family instantiate hooks);
    // the witness-digest goldens (tests/witness_digest_test.cpp) pin
    // that the refactor reproduced every build bit-identically. ---

    // Wait-free scenarios (Corollary 7.1 route).
    r.add_alias("consensus-2-wf",
                "binary consensus, 2 processes, wait-free — FLP: every "
                "depth exhausts",
                "wf-consensus-2-2");
    r.add_alias(
        "is-1-wf",
        "one-round immediate snapshot, 2 processes — solvable at depth 1",
        "wf-is-1");
    r.add_alias(
        "is-2-wf",
        "one-round immediate snapshot, 3 processes — solvable at depth 1",
        "wf-is-2");
    r.add_alias("ksa-2p-k2-wf",
                "2-set agreement, 2 processes, 2 values — trivial at "
                "depth 0",
                "ksa-2-2-2-wf");
    r.add_alias("lord-2p-wf",
                "total-order task, 2 processes — consensus-hard, every "
                "depth exhausts",
                "lord-1-wf");
    r.add_alias("chr2-2p-wf",
                "L_t at t = n (all of Chr^2 s), 2 processes — solvable "
                "at depth 2, the Section 7 ACT degeneracy",
                "lt-1-1-wf");

    // General-model scenarios (Theorem 6.1 route).
    r.add_alias("lt-2-1-res1",
                "the headline Proposition 9.2: L_1 solvable 1-resiliently "
                "by 3 processes",
                "lt-2-1-res1");
    r.add_alias("lt-2-1-adv",
                "L_1 under the adversary A = {slow sets of size <= 1} — "
                "the adversary presentation of Res_1 (Example 2.4)",
                "lt-2-1-adv1");
    r.add_alias("is-2-of1",
                "immediate snapshot under OF_1: K(T) = Chr s, every "
                "obstruction-free run lands at round 1",
                "is-2-of1");
    r.add_alias("approx-2-of2",
                "2-round approximate agreement (L = Chr^2 s) under OF_2: "
                "uniform termination at depth 2",
                "approx-2-of2");
    r.add_alias("ksa-3p-k2-res1",
                "2-set agreement, 3 processes, under Res_1 — outside the "
                "engine's routes (no affine geometry): reported "
                "unsupported",
                "ksa-3-2-2-res1");

    // Heavy scenarios: runnable by name, excluded from quick sets.
    r.add_alias("lt-3-2-res2",
                "L_2 for 4 processes under Res_2 — the n = 3 pipeline "
                "frontier (multi-second subdivision build; sharded per "
                "facet)",
                "lt-3-2-res2");

    // --- The ksa k-set-agreement heavy grid: a generated workload the
    // hand-named registry never had. Every cell routes a value task
    // through the general model path; the engine has no affine geometry
    // for it, so each honestly reports `unsupported` — the sweep table
    // shows the current frontier rather than erroring. Registered heavy
    // so quick sets (and their pinned golden tables) are unchanged. ---
    {
        const ScenarioFamily* ksa = r.family("ksa");
        require(ksa != nullptr, "standard registry: ksa family missing");
        for (int p : {3, 4}) {
            for (int k : {2, 3}) {
                FamilyInstance inst;
                inst.family = "ksa";
                inst.params = {p, k, 3};
                inst.model_token = "res";
                inst.model_arg = 1;
                require(ksa->validate(inst).empty(),
                        "standard registry: invalid ksa grid cell");
                r.add(ksa->encode(inst),
                      ksa->describe(inst) +
                          " — heavy sweep grid: general-model path, "
                          "reported unsupported (the engine's current "
                          "frontier)",
                      true, [fam = *ksa, inst] {
                          return fam.instantiate(inst);
                      });
            }
        }
    }

    return r;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::standard() {
    static const ScenarioRegistry registry = build_standard();
    return registry;
}

void ScenarioRegistry::add(std::string name, std::string description,
                           bool heavy, std::function<Scenario()> make) {
    require(static_cast<bool>(make), "ScenarioRegistry::add: null factory");
    require(index_.find(name) == index_.end(),
            "ScenarioRegistry::add: duplicate scenario " + name);
    index_.emplace(name, specs_.size());
    specs_.push_back(ScenarioSpec{std::move(name), std::move(description),
                                  heavy, std::move(make)});
}

void ScenarioRegistry::add_family(ScenarioFamily family) {
    for (const ScenarioFamily& f : families_) {
        require(f.key() != family.key(),
                "ScenarioRegistry::add_family: duplicate family " +
                    family.key());
    }
    families_.push_back(std::move(family));
}

void ScenarioRegistry::add_alias(std::string name, std::string description,
                                 const std::string& canonical) {
    for (const ScenarioFamily& f : families_) {
        if (!f.claims(canonical)) continue;
        std::string err;
        const std::optional<FamilyInstance> inst = f.parse(canonical, &err);
        require(inst.has_value(), "ScenarioRegistry::add_alias: " + err);
        add(std::move(name), std::move(description), f.heavy(*inst),
            [fam = f, i = *inst] { return fam.instantiate(i); });
        return;
    }
    require(false, "ScenarioRegistry::add_alias: no family claims '" +
                       canonical + "'");
}

const ScenarioFamily* ScenarioRegistry::family(
    const std::string& key) const {
    for (const ScenarioFamily& f : families_) {
        if (f.key() == key) return &f;
    }
    return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const ScenarioSpec& spec : specs_) out.push_back(spec.name);
    std::sort(out.begin(), out.end());
    return out;
}

Scenario ScenarioRegistry::materialize(const ScenarioSpec& spec) const {
    Scenario s = spec.make();
    s.name = spec.name;
    s.description = spec.description;
    s.heavy = spec.heavy;
    return s;
}

Scenario ScenarioRegistry::materialize(const ScenarioFamily& family,
                                       const FamilyInstance& inst) const {
    Scenario s = family.instantiate(inst);
    s.name = family.encode(inst);
    s.description = family.describe(inst);
    s.heavy = family.heavy(inst);
    return s;
}

std::optional<Scenario> ScenarioRegistry::find(const std::string& name,
                                               std::string* error) const {
    const auto it = index_.find(name);
    if (it != index_.end()) return materialize(specs_[it->second]);
    for (const ScenarioFamily& f : families_) {
        if (!f.claims(name)) continue;
        std::string perr;
        const std::optional<FamilyInstance> inst = f.parse(name, &perr);
        if (!inst.has_value()) {
            if (error != nullptr) *error = std::move(perr);
            return std::nullopt;
        }
        return materialize(f, *inst);
    }
    if (error != nullptr) {
        std::string known;
        for (const std::string& n : names()) {
            if (!known.empty()) known += ", ";
            known += n;
        }
        // No "unknown scenario 'x'" prefix here: every caller adds its
        // own, so the text composes without stuttering.
        *error = "scenario families (any in-range name works):\n" +
                 grammar_help() + "registered names: " + known;
    }
    return std::nullopt;
}

std::vector<Scenario> ScenarioRegistry::quick() const {
    std::vector<Scenario> out;
    for (const ScenarioSpec& spec : specs_) {
        if (spec.heavy) continue;
        out.push_back(materialize(spec));
    }
    return out;
}

std::string ScenarioRegistry::grammar_help() const {
    std::string out;
    for (const ScenarioFamily& f : families_) {
        // grammar_help is "grammar — description\n      ranges";
        // re-indent the whole block two spaces for CLI output.
        std::string block = f.grammar_help();
        out += "  " + block + "\n";
    }
    return out;
}

std::vector<Scenario> ScenarioRegistry::expand(
    const std::string& family_key, const ParamGrid& grid,
    std::string* error, std::vector<std::string>* skipped) const {
    const auto fail = [&](std::string what) -> std::vector<Scenario> {
        if (error != nullptr) *error = std::move(what);
        return {};
    };
    const ScenarioFamily* fam = family(family_key);
    if (fam == nullptr) {
        std::string known;
        for (const ScenarioFamily& f : families_) {
            if (!known.empty()) known += ", ";
            known += f.key();
        }
        return fail("unknown family '" + family_key +
                    "' (families: " + known + ")");
    }

    // Resolve one value list per parameter axis (schema order), then
    // the model axis. Unknown axis names and out-of-schema values are
    // hard errors — a typoed sweep must not quietly shrink.
    std::vector<bool> used(grid.size(), false);
    std::vector<std::vector<int>> axes;
    for (std::size_t pi = 0; pi < fam->params().size(); ++pi) {
        const FamilyParam& p = fam->params()[pi];
        std::vector<int> values;
        for (std::size_t gi = 0; gi < grid.size(); ++gi) {
            if (grid[gi].name != p.name) continue;
            used[gi] = true;
            values = grid[gi].values;
            if (values.empty()) {
                return fail("axis '" + p.name + "' has no values");
            }
        }
        if (values.empty()) {  // omitted: full canonical range
            for (int v = p.min; v <= p.max; ++v) values.push_back(v);
        }
        for (int v : values) {
            if (v < p.min || v > p.max) {
                return fail("axis " + p.name + "=" + std::to_string(v) +
                            " outside [" + std::to_string(p.min) + ".." +
                            std::to_string(p.max) + "] for family " +
                            family_key);
            }
        }
        axes.push_back(std::move(values));
    }
    std::vector<std::pair<std::string, int>> model_values;
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        if (grid[gi].name != "model") continue;
        used[gi] = true;
        if (fam->models().empty()) {
            return fail("family " + family_key + " has no model axis");
        }
        for (const std::string& text : grid[gi].models) {
            const FamilyModel* match = nullptr;
            for (const FamilyModel& m : fam->models()) {
                if (text.rfind(m.token, 0) != 0) continue;
                if (match == nullptr ||
                    m.token.size() > match->token.size()) {
                    match = &m;
                }
            }
            int arg = 0;
            if (match != nullptr && match->has_arg &&
                !parse_canonical_int(text.substr(match->token.size()),
                                     arg)) {
                match = nullptr;
            }
            if (match != nullptr && !match->has_arg &&
                text != match->token) {
                match = nullptr;
            }
            if (match == nullptr) {
                return fail("model value '" + text +
                            "' does not match family " + family_key +
                            " (grammar " + fam->grammar() + ")");
            }
            model_values.emplace_back(match->token, arg);
        }
        if (model_values.empty()) {
            return fail("model axis has no values");
        }
    }
    if (!fam->models().empty() && model_values.empty()) {
        return fail("family " + family_key +
                    " needs an explicit model axis (e.g. model=wf)");
    }
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        if (!used[gi]) {
            return fail("axis '" + grid[gi].name +
                        "' names no parameter of family " + family_key);
        }
    }

    // Cartesian product: schema order, last axis varying fastest (the
    // model axis last). Cells failing cross-parameter validation are
    // reported via `skipped`, never silently dropped.
    std::vector<Scenario> out;
    std::vector<std::size_t> odo(axes.size(), 0);
    const std::size_t model_count =
        model_values.empty() ? 1 : model_values.size();
    while (true) {
        for (std::size_t mi = 0; mi < model_count; ++mi) {
            FamilyInstance inst;
            inst.family = fam->key();
            for (std::size_t pi = 0; pi < axes.size(); ++pi) {
                inst.params.push_back(axes[pi][odo[pi]]);
            }
            if (!model_values.empty()) {
                inst.model_token = model_values[mi].first;
                inst.model_arg = model_values[mi].second;
            }
            if (!fam->validate(inst).empty()) {
                if (skipped != nullptr) {
                    skipped->push_back(fam->encode(inst));
                }
                continue;
            }
            out.push_back(materialize(*fam, inst));
        }
        // Advance the odometer (last parameter axis fastest).
        std::size_t pi = axes.size();
        while (pi > 0) {
            --pi;
            if (++odo[pi] < axes[pi].size()) break;
            odo[pi] = 0;
            if (pi == 0) return out;
        }
        if (axes.empty()) return out;
    }
}

std::vector<Scenario> ScenarioRegistry::quick_grid() const {
    // Cheap parameter points of every family — the standard sweep the
    // CLI preset, bench_engine_batch, and the CI smoke share. Each cell
    // is at most seconds-scale; heavy points (lt n >= 3, wait-free lt
    // n >= 2, ksa/consensus/lord at p >= 3) are deliberately outside.
    const auto cells = [this](const char* family, const ParamGrid& grid) {
        std::string error;
        std::vector<Scenario> out = expand(family, grid, &error);
        require(error.empty(),
                std::string("quick_grid: ") + family + ": " + error);
        return out;
    };
    std::vector<Scenario> out;
    const auto append = [&out](std::vector<Scenario> v) {
        for (Scenario& s : v) out.push_back(std::move(s));
    };
    append(cells("wf-consensus", {{"p", {2}, {}}, {"v", {2, 3}, {}}}));
    append(cells("wf-is", {{"n", {1, 2}, {}}}));
    append(cells("ksa", {{"p", {2}, {}},
                         {"k", {1, 2}, {}},
                         {"v", {2}, {}},
                         {"model", {}, {"wf"}}}));
    append(cells("lord", {{"n", {1}, {}}, {"model", {}, {"wf"}}}));
    append(cells("lt", {{"n", {1}, {}},
                        {"t", {1}, {}},
                        {"model", {}, {"wf", "res1", "adv1"}}}));
    append(cells("lt", {{"n", {2}, {}},
                        {"t", {1, 2}, {}},
                        {"model", {}, {"res1", "adv1"}}}));
    append(cells("is-of", {{"n", {1, 2}, {}}, {"k", {1, 2}, {}}}));
    append(cells("approx-of", {{"n", {1, 2}, {}}, {"k", {1, 2}, {}}}));
    return out;
}

}  // namespace gact::engine
