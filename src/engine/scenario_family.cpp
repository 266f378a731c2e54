#include "engine/scenario_family.h"

#include <algorithm>

#include "tasks/standard_tasks.h"
#include "util/require.h"

namespace gact::engine {

/// Canonical decimal: nonempty, digits only, no leading zero (so every
/// accepted spelling re-encodes bit-identically), fits in int.
bool parse_canonical_int(const std::string& text, int& out) {
    if (text.empty() || text.size() > 9) return false;
    if (text.size() > 1 && text[0] == '0') return false;
    int value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + (c - '0');
    }
    out = value;
    return true;
}

namespace {

std::vector<std::string> split_dashes(const std::string& name) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t dash = name.find('-', start);
        if (dash == std::string::npos) {
            out.push_back(name.substr(start));
            return out;
        }
        out.push_back(name.substr(start, dash - start));
        start = dash + 1;
    }
}

}  // namespace

ScenarioFamily::ScenarioFamily(std::string key, std::string description,
                               std::string constraints_doc,
                               std::vector<NameSegment> pattern,
                               std::vector<FamilyParam> params,
                               std::vector<FamilyModel> models,
                               ValidateFn validate, HeavyFn heavy,
                               InstantiateFn instantiate)
    : key_(std::move(key)),
      description_(std::move(description)),
      constraints_doc_(std::move(constraints_doc)),
      pattern_(std::move(pattern)),
      params_(std::move(params)),
      models_(std::move(models)),
      validate_(std::move(validate)),
      heavy_(std::move(heavy)),
      instantiate_(std::move(instantiate)) {
    require(!pattern_.empty() && static_cast<bool>(instantiate_),
            "ScenarioFamily: empty pattern or null instantiate");
    if (!validate_) validate_ = [](const FamilyInstance&) { return ""; };
    if (!heavy_) heavy_ = [](const FamilyInstance&) { return false; };
}

std::string ScenarioFamily::grammar() const {
    std::string out;
    for (const NameSegment& seg : pattern_) {
        if (!out.empty()) out += "-";
        switch (seg.kind) {
            case NameSegment::Kind::kLiteral:
                out += seg.text;
                break;
            case NameSegment::Kind::kParam:
                out += "<" + params_[seg.param].name + ">";
                break;
            case NameSegment::Kind::kPrefixedParam:
                out += seg.text + "<" + params_[seg.param].name + ">";
                break;
            case NameSegment::Kind::kModel: {
                std::string alts;
                for (const FamilyModel& m : models_) {
                    if (!alts.empty()) alts += "|";
                    alts += m.token;
                    if (m.has_arg) alts += "<" + m.token.substr(0, 1) + ">";
                }
                out += "<" + alts + ">";
                break;
            }
        }
    }
    return out;
}

std::string ScenarioFamily::grammar_help() const {
    std::string out = grammar() + " — " + description_;
    std::string ranges;
    for (const FamilyParam& p : params_) {
        if (!ranges.empty()) ranges += ", ";
        ranges += p.name + " in [" + std::to_string(p.min) + ".." +
                  std::to_string(p.max) + "] (" + p.doc + ")";
    }
    for (const FamilyModel& m : models_) {
        if (!m.has_arg) continue;
        if (!ranges.empty()) ranges += ", ";
        ranges += m.token + " arg in [" + std::to_string(m.arg_min) + ".." +
                  std::to_string(m.arg_max) + "]";
    }
    if (!ranges.empty()) out += "\n      " + ranges;
    if (!constraints_doc_.empty()) out += "; " + constraints_doc_;
    return out;
}

std::string ScenarioFamily::encode(const FamilyInstance& inst) const {
    std::string out;
    for (const NameSegment& seg : pattern_) {
        if (!out.empty()) out += "-";
        switch (seg.kind) {
            case NameSegment::Kind::kLiteral:
                out += seg.text;
                break;
            case NameSegment::Kind::kParam:
                out += std::to_string(inst.params[seg.param]);
                break;
            case NameSegment::Kind::kPrefixedParam:
                out += seg.text + std::to_string(inst.params[seg.param]);
                break;
            case NameSegment::Kind::kModel: {
                out += inst.model_token;
                for (const FamilyModel& m : models_) {
                    if (m.token == inst.model_token && m.has_arg) {
                        out += std::to_string(inst.model_arg);
                    }
                }
                break;
            }
        }
    }
    return out;
}

bool ScenarioFamily::claims(const std::string& name) const {
    const std::vector<std::string> tokens = split_dashes(name);
    for (std::size_t i = 0; i < pattern_.size(); ++i) {
        if (pattern_[i].kind != NameSegment::Kind::kLiteral) return true;
        if (i >= tokens.size() || tokens[i] != pattern_[i].text) {
            return false;
        }
    }
    return true;  // all-literal pattern fully matched
}

std::optional<FamilyInstance> ScenarioFamily::parse(
    const std::string& name, std::string* error) const {
    const auto fail = [&](std::string what) -> std::optional<FamilyInstance> {
        if (error != nullptr) {
            *error = "'" + name + "' does not match " + key_ +
                     " family grammar " + grammar() + ": " + std::move(what);
        }
        return std::nullopt;
    };
    const std::vector<std::string> tokens = split_dashes(name);
    if (tokens.size() != pattern_.size()) {
        return fail("expected " + std::to_string(pattern_.size()) +
                    " '-'-separated segments, got " +
                    std::to_string(tokens.size()));
    }
    FamilyInstance inst;
    inst.family = key_;
    inst.params.assign(params_.size(), 0);
    for (std::size_t i = 0; i < pattern_.size(); ++i) {
        const NameSegment& seg = pattern_[i];
        const std::string& tok = tokens[i];
        switch (seg.kind) {
            case NameSegment::Kind::kLiteral:
                if (tok != seg.text) {
                    return fail("segment " + std::to_string(i + 1) +
                                " must be '" + seg.text + "'");
                }
                break;
            case NameSegment::Kind::kParam:
                if (!parse_canonical_int(tok, inst.params[seg.param])) {
                    return fail("segment '" + tok +
                                "' is not a canonical integer for "
                                "parameter " +
                                params_[seg.param].name);
                }
                break;
            case NameSegment::Kind::kPrefixedParam:
                if (tok.rfind(seg.text, 0) != 0 ||
                    !parse_canonical_int(tok.substr(seg.text.size()),
                                         inst.params[seg.param])) {
                    return fail("segment '" + tok + "' must be " + seg.text +
                                "<" + params_[seg.param].name + ">");
                }
                break;
            case NameSegment::Kind::kModel: {
                const FamilyModel* match = nullptr;
                for (const FamilyModel& m : models_) {
                    if (tok.rfind(m.token, 0) != 0) continue;
                    // Longest-token match (none of the standard tokens
                    // prefix each other, but stay order-independent).
                    if (match == nullptr ||
                        m.token.size() > match->token.size()) {
                        match = &m;
                    }
                }
                if (match == nullptr) {
                    return fail("unknown model token '" + tok + "'");
                }
                inst.model_token = match->token;
                const std::string arg = tok.substr(match->token.size());
                if (!match->has_arg) {
                    if (!arg.empty()) {
                        return fail("model '" + match->token +
                                    "' takes no argument, got '" + tok +
                                    "'");
                    }
                } else if (!parse_canonical_int(arg, inst.model_arg)) {
                    return fail("model '" + match->token +
                                "' needs a canonical integer argument, "
                                "got '" +
                                tok + "'");
                }
                break;
            }
        }
    }
    const std::string verr = validate(inst);
    if (!verr.empty()) {
        if (error != nullptr) {
            *error = "'" + name + "' is out of the " + key_ +
                     " family's range: " + verr + "\n    " + grammar_help();
        }
        return std::nullopt;
    }
    return inst;
}

std::string ScenarioFamily::validate(const FamilyInstance& inst) const {
    if (inst.params.size() != params_.size()) {
        return "expected " + std::to_string(params_.size()) +
               " parameters, got " + std::to_string(inst.params.size());
    }
    for (std::size_t i = 0; i < params_.size(); ++i) {
        const FamilyParam& p = params_[i];
        if (inst.params[i] < p.min || inst.params[i] > p.max) {
            return "parameter " + p.name + "=" +
                   std::to_string(inst.params[i]) + " outside [" +
                   std::to_string(p.min) + ".." + std::to_string(p.max) +
                   "]";
        }
    }
    if (models_.empty()) {
        if (!inst.model_token.empty()) {
            return "family " + key_ + " has no model axis";
        }
    } else {
        const FamilyModel* match = nullptr;
        for (const FamilyModel& m : models_) {
            if (m.token == inst.model_token) match = &m;
        }
        if (match == nullptr) {
            return "unknown model token '" + inst.model_token + "'";
        }
        if (match->has_arg && (inst.model_arg < match->arg_min ||
                               inst.model_arg > match->arg_max)) {
            return "model argument " + match->token +
                   std::to_string(inst.model_arg) + " outside [" +
                   std::to_string(match->arg_min) + ".." +
                   std::to_string(match->arg_max) + "]";
        }
    }
    return validate_(inst);
}

std::string ScenarioFamily::describe(const FamilyInstance& inst) const {
    std::string out = description_ + " (";
    for (std::size_t i = 0; i < params_.size(); ++i) {
        if (i != 0) out += ", ";
        out += params_[i].name + "=" + std::to_string(inst.params[i]);
    }
    if (!inst.model_token.empty()) {
        out += ", model=" + inst.model_token;
        for (const FamilyModel& m : models_) {
            if (m.token == inst.model_token && m.has_arg) {
                out += std::to_string(inst.model_arg);
            }
        }
    }
    return out + ")";
}

util::Json ScenarioFamily::schema_json() const {
    util::Json out = util::Json::object();
    out.set("family", key_);
    out.set("description", description_);
    out.set("grammar", grammar());
    util::Json params = util::Json::array();
    for (const FamilyParam& p : params_) {
        util::Json j = util::Json::object();
        j.set("name", p.name);
        j.set("min", p.min);
        j.set("max", p.max);
        j.set("doc", p.doc);
        params.push_back(std::move(j));
    }
    out.set("params", std::move(params));
    util::Json models = util::Json::array();
    for (const FamilyModel& m : models_) {
        util::Json j = util::Json::object();
        j.set("token", m.token);
        j.set("has_arg", m.has_arg);
        if (m.has_arg) {
            j.set("arg_min", m.arg_min);
            j.set("arg_max", m.arg_max);
        }
        j.set("doc", m.doc);
        models.push_back(std::move(j));
    }
    out.set("models", std::move(models));
    if (!constraints_doc_.empty()) out.set("constraints", constraints_doc_);
    return out;
}

std::optional<GridAxis> parse_grid_axis(const std::string& text,
                                        std::string* error) {
    const auto fail = [&](std::string what) -> std::optional<GridAxis> {
        if (error != nullptr) {
            *error = "bad axis '" + text + "': " + std::move(what) +
                     " (expected NAME=A..B or NAME=v1,v2,..)";
        }
        return std::nullopt;
    };
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
        return fail("missing NAME=VALUES");
    }
    GridAxis axis;
    axis.name = text.substr(0, eq);
    const std::string values = text.substr(eq + 1);
    if (axis.name == "model") {
        // Comma-separated model tokens, validated against the family
        // later (expand knows which family the axis belongs to).
        std::size_t start = 0;
        while (start <= values.size()) {
            const std::size_t comma = values.find(',', start);
            const std::string tok =
                values.substr(start, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - start);
            if (tok.empty()) return fail("empty model token");
            axis.models.push_back(tok);
            if (comma == std::string::npos) break;
            start = comma + 1;
        }
        return axis;
    }
    const std::size_t dots = values.find("..");
    if (dots != std::string::npos) {
        int lo = 0, hi = 0;
        if (!parse_canonical_int(values.substr(0, dots), lo) ||
            !parse_canonical_int(values.substr(dots + 2), hi)) {
            return fail("range bounds must be canonical integers");
        }
        if (hi < lo) return fail("empty range (max < min)");
        for (int v = lo; v <= hi; ++v) axis.values.push_back(v);
        return axis;
    }
    std::size_t start = 0;
    while (start <= values.size()) {
        const std::size_t comma = values.find(',', start);
        const std::string tok =
            values.substr(start, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - start);
        int v = 0;
        if (!parse_canonical_int(tok, v)) {
            return fail("value '" + tok + "' is not a canonical integer");
        }
        axis.values.push_back(v);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return axis;
}

// ---------------------------------------------------------------------
// The standard families. Each instantiate hook reproduces exactly the
// EngineOptions the hand-built registry entries used (the legacy names
// are aliases through these hooks, pinned by the witness-digest
// goldens), generalized over the schema's parameter ranges.

namespace {

EngineOptions wait_free_options(int max_depth) {
    EngineOptions o;
    o.max_depth = max_depth;
    return o;
}

/// The L_t options: 2 + 2 subdivision stages, radial guidance (exact
/// for n = 2; the engine downgrades it with a warning elsewhere), and
/// per-facet sharding on the multi-second n >= 3 builds.
EngineOptions lt_options(int n) {
    EngineOptions o;
    o.subdivision_stages = 4;
    o.guidance = core::LtGuidance::kRadial;
    if (n >= 3) o.shard_threads = 4;
    return o;
}

/// Options for the degenerate K(T) = Chr^depth subdivisions: everything
/// is identity-fixed, so candidate guidance would be wasted work.
EngineOptions uniform_options(std::size_t stages) {
    EngineOptions o;
    o.subdivision_stages = stages;
    o.guidance = core::LtGuidance::kNone;
    return o;
}

/// All subsets of {0..n} of size <= a, ordered by (size, bitmask) —
/// for a = 1 this is exactly the legacy lt-2-1-adv adversary
/// ({}, {0}, {1}, {2}).
std::vector<ProcessSet> bounded_slow_sets(int n, int a) {
    std::vector<std::uint32_t> masks;
    for (std::uint32_t m = 0; m < (1u << (n + 1)); ++m) {
        if (__builtin_popcount(m) <= a) masks.push_back(m);
    }
    std::sort(masks.begin(), masks.end(),
              [](std::uint32_t x, std::uint32_t y) {
                  const int px = __builtin_popcount(x);
                  const int py = __builtin_popcount(y);
                  return px != py ? px < py : x < y;
              });
    std::vector<ProcessSet> out;
    out.reserve(masks.size());
    for (std::uint32_t m : masks) out.push_back(ProcessSet::from_bits(m));
    return out;
}

std::vector<ScenarioFamily> build_families() {
    using Seg = NameSegment;
    std::vector<ScenarioFamily> out;

    // --- wf-consensus-<p>-<v>: binary+ consensus, wait-free route ---
    out.emplace_back(
        "wf-consensus",
        "consensus, wait-free (FLP: every searched depth exhausts)", "",
        std::vector<Seg>{Seg::literal("wf"), Seg::literal("consensus"),
                         Seg::param_at(0), Seg::param_at(1)},
        std::vector<FamilyParam>{
            {"p", 2, 3, "number of processes"},
            {"v", 2, 3, "number of input values"}},
        std::vector<FamilyModel>{}, nullptr,
        [](const FamilyInstance& i) { return i.params[0] >= 3; },
        [](const FamilyInstance& i) {
            return Scenario::wait_free(
                "",
                tasks::consensus_task(
                    static_cast<std::uint32_t>(i.params[0]),
                    static_cast<std::uint32_t>(i.params[1])),
                wait_free_options(3));
        });

    // --- wf-is-<n>: one-round immediate snapshot, wait-free route ---
    out.emplace_back(
        "wf-is",
        "one-round immediate snapshot, wait-free (solvable at depth 1)",
        "",
        std::vector<Seg>{Seg::literal("wf"), Seg::literal("is"),
                         Seg::param_at(0)},
        std::vector<FamilyParam>{
            {"n", 1, 2, "base dimension (n+1 processes)"}},
        std::vector<FamilyModel>{}, nullptr, nullptr,
        [](const FamilyInstance& i) {
            return Scenario::wait_free(
                "", tasks::immediate_snapshot_task(i.params[0]).task,
                wait_free_options(2));
        });

    // --- ksa-<p>-<k>-<v>-<model>: k-set agreement ---
    out.emplace_back(
        "ksa",
        "k-set agreement (deciders output at most k distinct inputs)",
        "k <= p; res argument r < p",
        std::vector<Seg>{Seg::literal("ksa"), Seg::param_at(0),
                         Seg::param_at(1), Seg::param_at(2), Seg::model()},
        std::vector<FamilyParam>{
            {"p", 2, 4, "number of processes"},
            {"k", 1, 3, "agreement bound (k = 1 is consensus)"},
            {"v", 2, 4, "number of input values"}},
        std::vector<FamilyModel>{
            {"wf", false, 0, 0, "wait-free (Corollary 7.1 search)"},
            {"res", true, 1, 3,
             "t-resilient Res_r — no affine geometry, so the general "
             "route reports the pair unsupported (the engine's honest "
             "frontier)"}},
        [](const FamilyInstance& i) -> std::string {
            if (i.params[1] > i.params[0]) {
                return "k=" + std::to_string(i.params[1]) +
                       " exceeds p=" + std::to_string(i.params[0]);
            }
            if (i.model_token == "res" && i.model_arg >= i.params[0]) {
                return "res argument " + std::to_string(i.model_arg) +
                       " must be < p=" + std::to_string(i.params[0]);
            }
            return "";
        },
        [](const FamilyInstance& i) {
            // The wait-free route genuinely searches (Chr^k at p >= 3
            // is past quick budgets); res cells are instant — the
            // general route reports them unsupported without building
            // anything.
            return i.model_token == "wf" && i.params[0] >= 3;
        },
        [](const FamilyInstance& i) {
            Scenario s = Scenario::wait_free(
                "",
                tasks::k_set_agreement_task(
                    static_cast<std::uint32_t>(i.params[0]),
                    static_cast<std::uint32_t>(i.params[1]),
                    static_cast<std::uint32_t>(i.params[2])),
                wait_free_options(1));
            if (i.model_token == "res") {
                s.model = std::make_shared<iis::TResilientModel>(
                    static_cast<std::uint32_t>(i.params[0]),
                    static_cast<std::uint32_t>(i.model_arg));
            }
            return s;
        });

    // --- lord-<n>-wf: the total-order task L_ord ---
    out.emplace_back(
        "lord",
        "total-order task L_ord, wait-free (consensus-hard: every "
        "searched depth exhausts)",
        "",
        std::vector<Seg>{Seg::literal("lord"), Seg::param_at(0),
                         Seg::model()},
        std::vector<FamilyParam>{
            {"n", 1, 2, "base dimension (n+1 processes)"}},
        std::vector<FamilyModel>{{"wf", false, 0, 0, "wait-free"}},
        nullptr,
        [](const FamilyInstance& i) { return i.params[0] >= 2; },
        [](const FamilyInstance& i) {
            return Scenario::wait_free(
                "", tasks::total_order_task(i.params[0]).task,
                wait_free_options(3));
        });

    // --- lt-<n>-<t>-<model>: the t-resilience task L_t ---
    out.emplace_back(
        "lt",
        "t-resilience task L_t (simplices clear of the (n-t-1)-skeleton "
        "of s)",
        "t <= n; res/adv arguments <= n",
        std::vector<Seg>{Seg::literal("lt"), Seg::param_at(0),
                         Seg::param_at(1), Seg::model()},
        std::vector<FamilyParam>{
            {"n", 1, 3, "base dimension (n+1 processes)"},
            {"t", 1, 3, "resilience index of the task"}},
        std::vector<FamilyModel>{
            {"wf", false, 0, 0, "wait-free (Corollary 7.1 search)"},
            {"res", true, 1, 3, "t-resilient Res_r (Example 2.2)"},
            {"adv", true, 1, 3,
             "adversary M_adv(|slow| <= a) (Example 2.4)"}},
        [](const FamilyInstance& i) -> std::string {
            const int n = i.params[0];
            if (i.params[1] > n) {
                return "t=" + std::to_string(i.params[1]) +
                       " exceeds n=" + std::to_string(n);
            }
            if ((i.model_token == "res" || i.model_token == "adv") &&
                i.model_arg > n) {
                return "model argument " + std::to_string(i.model_arg) +
                       " exceeds n=" + std::to_string(n);
            }
            return "";
        },
        [](const FamilyInstance& i) {
            // n = 3 builds take seconds; the wait-free route on
            // n >= 2 searches Chr^3 of a full 2-simplex task, also far
            // past quick budgets.
            return i.params[0] >= 3 ||
                   (i.model_token == "wf" && i.params[0] >= 2);
        },
        [](const FamilyInstance& i) {
            const int n = i.params[0];
            const int t = i.params[1];
            if (i.model_token == "wf") {
                return Scenario::wait_free(
                    "", tasks::t_resilience_task(n, t).task,
                    wait_free_options(3));
            }
            std::shared_ptr<const iis::Model> model;
            if (i.model_token == "res") {
                model = std::make_shared<iis::TResilientModel>(
                    static_cast<std::uint32_t>(n + 1),
                    static_cast<std::uint32_t>(i.model_arg));
            } else {
                model = std::make_shared<iis::AdversaryModel>(
                    "M_adv(|slow|<=" + std::to_string(i.model_arg) + ")",
                    bounded_slow_sets(n, i.model_arg));
            }
            return Scenario::general(
                "", tasks::t_resilience_task(n, t), std::move(model),
                std::make_shared<LtStableRule>(n, t), lt_options(n));
        });

    // --- is-<n>-of<k>: immediate snapshot under obstruction freedom ---
    out.emplace_back(
        "is-of",
        "one-round immediate snapshot under OF_k (K(T) = Chr s, every "
        "obstruction-free run lands at round 1)",
        "",
        std::vector<Seg>{Seg::literal("is"), Seg::param_at(0),
                         Seg::prefixed("of", 1)},
        std::vector<FamilyParam>{
            {"n", 1, 2, "base dimension (n+1 processes)"},
            {"k", 1, 3, "obstruction-freedom bound (|fast| <= k)"}},
        std::vector<FamilyModel>{}, nullptr, nullptr,
        [](const FamilyInstance& i) {
            return Scenario::general(
                "", tasks::immediate_snapshot_task(i.params[0]),
                std::make_shared<iis::ObstructionFreeModel>(
                    static_cast<std::uint32_t>(i.params[1])),
                std::make_shared<UniformDepthRule>(1), uniform_options(2));
        });

    // --- approx-<n>-of<k>: approximate agreement under OF_k ---
    out.emplace_back(
        "approx-of",
        "2-round approximate agreement (L = Chr^2 s) under OF_k with "
        "uniform termination at depth 2",
        "",
        std::vector<Seg>{Seg::literal("approx"), Seg::param_at(0),
                         Seg::prefixed("of", 1)},
        std::vector<FamilyParam>{
            {"n", 1, 2, "base dimension (n+1 processes)"},
            {"k", 1, 3, "obstruction-freedom bound (|fast| <= k)"}},
        std::vector<FamilyModel>{}, nullptr, nullptr,
        [](const FamilyInstance& i) {
            return Scenario::general(
                "", tasks::t_resilience_task(i.params[0], i.params[0]),
                std::make_shared<iis::ObstructionFreeModel>(
                    static_cast<std::uint32_t>(i.params[1])),
                std::make_shared<UniformDepthRule>(2), uniform_options(3));
        });

    return out;
}

}  // namespace

const std::vector<ScenarioFamily>& standard_families() {
    static const std::vector<ScenarioFamily> families = build_families();
    return families;
}

}  // namespace gact::engine
