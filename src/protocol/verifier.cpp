#include "protocol/verifier.h"

#include "util/require.h"

namespace gact::protocol {

std::string SolvabilityReport::summary() const {
    std::string out = solved ? "solved" : "NOT solved";
    out += " (" + std::to_string(runs_checked) + " runs, " +
           std::to_string(decisions_checked) + " decisions";
    if (!violations.empty()) {
        out += ", " + std::to_string(violations.size()) + " violations; first: " +
               violations.front();
    }
    out += ")";
    return out;
}

namespace {

/// Check both Definition 4.1 conditions for one run with the given input
/// assignment (`inputs[p]` is p's input vertex, or nullopt for input-less
/// views). `allowed` is Delta(omega ∩ chi^{-1}(part(r))).
void check_run(const tasks::Task& task, const Protocol& protocol,
               const iis::Run& run, std::size_t horizon, ViewArena& arena,
               const std::vector<std::optional<topo::VertexId>>& inputs,
               const topo::SimplicialComplex& allowed,
               const std::string& run_label, SolvabilityReport& report) {
    const auto violation = [&report, &run_label](const std::string& what) {
        report.violations.push_back(run_label + ": " + what);
    };

    const auto views = run.view_table(horizon, arena, &inputs);
    const gact::ProcessSet infinite = run.infinite_participants();

    // Condition (1) per process, collecting outputs for condition (2).
    topo::Simplex produced;
    for (gact::ProcessId p = 0; p < run.num_processes(); ++p) {
        std::optional<topo::VertexId> decided;
        bool decided_ever = false;
        for (std::size_t k = 0; k <= horizon; ++k) {
            if (!views[k][p].has_value()) break;  // p dropped out
            const auto out = protocol.output(*views[k][p], arena);
            if (!out.has_value()) {
                if (decided_ever) {
                    violation("p" + std::to_string(p) +
                              " un-decided at round " + std::to_string(k));
                }
                continue;
            }
            ++report.decisions_checked;
            if (decided_ever && *decided != *out) {
                violation("p" + std::to_string(p) +
                          " changed decision at round " + std::to_string(k));
            }
            decided = out;
            decided_ever = true;
            if (task.outputs.color(*out) != p) {
                violation("p" + std::to_string(p) +
                          " decided a vertex of color " +
                          std::to_string(task.outputs.color(*out)));
            }
        }
        if (infinite.contains(p) && !decided_ever) {
            violation("infinitely participating p" + std::to_string(p) +
                      " never decides");
        }
        if (decided_ever) produced = produced.with(*decided);
    }

    // Condition (2): produced outputs must be a simplex allowed for the
    // participants (color collisions make `produced` a non-simplex of the
    // chromatic output complex, which `allowed.contains` rejects).
    if (!produced.empty() && !allowed.contains(produced)) {
        violation("outputs " + produced.to_string() + " not allowed");
    }
}

}  // namespace

SolvabilityReport verify_inputless(const tasks::Task& task,
                                   const Protocol& protocol,
                                   const std::vector<iis::Run>& runs,
                                   std::size_t horizon, ViewArena& arena) {
    require(task.is_inputless(), "verify_inputless: task has inputs");
    SolvabilityReport report;
    const std::vector<std::optional<topo::VertexId>> no_inputs(
        runs.empty() ? 0 : runs.front().num_processes());
    for (const iis::Run& run : runs) {
        ++report.runs_checked;
        std::vector<topo::VertexId> part_verts;
        for (gact::ProcessId p : run.participants().members()) {
            part_verts.push_back(static_cast<topo::VertexId>(p));
        }
        const std::vector<std::optional<topo::VertexId>> inputs(
            run.num_processes());
        check_run(task, protocol, run, horizon, arena, inputs,
                  task.delta.at(topo::Simplex(part_verts)),
                  "run " + run.to_string(), report);
    }
    report.solved = report.violations.empty();
    return report;
}

SolvabilityReport verify_task(const tasks::Task& task,
                              const Protocol& protocol,
                              const std::vector<iis::Run>& runs,
                              std::size_t horizon, ViewArena& arena) {
    SolvabilityReport report;
    const int n = static_cast<int>(task.num_processes) - 1;
    const auto omegas = task.inputs.complex().simplices_of_dimension(n);
    require(!omegas.empty(), "verify_task: input complex has no facets");
    for (const topo::Simplex& omega : omegas) {
        std::vector<std::optional<topo::VertexId>> inputs(task.num_processes);
        for (gact::ProcessId p = 0; p < task.num_processes; ++p) {
            inputs[p] = task.inputs.vertex_with_color(omega, p);
        }
        for (const iis::Run& run : runs) {
            ++report.runs_checked;
            // omega ∩ chi^{-1}(part(r)): the face of omega spanned by the
            // participants' input vertices.
            std::vector<topo::VertexId> face;
            for (gact::ProcessId p : run.participants().members()) {
                face.push_back(*inputs[p]);
            }
            check_run(task, protocol, run, horizon, arena, inputs,
                      task.delta.at(topo::Simplex(face)),
                      "omega " + omega.to_string() + " run " + run.to_string(),
                      report);
        }
    }
    report.solved = report.violations.empty();
    return report;
}

}  // namespace gact::protocol
