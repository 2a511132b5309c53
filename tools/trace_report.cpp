// trace_report — renders a compsynth JSONL trace as a Markdown run report.
//
// Usage:
//   trace_report <trace.jsonl> [-o report.md]
//
// Reads a trace produced by `compsynth_cli --trace` or a bench run with
// COMPSYNTH_TRACE set (schema: docs/OBSERVABILITY.md), groups events by run
// id, and emits one report section per run: headline summary, solver-time
// breakdown by component, oracle answer tallies, and the per-iteration
// survivor/solver-time curve.
//
// Exit status: 0 on success (even if some lines were unparseable — they are
// counted and reported), 1 on usage or I/O errors, 2 when the file contains
// no parseable trace events at all.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace {

using compsynth::obs::JsonObject;
using compsynth::obs::JsonFields;

std::string fmt(double v, int digits = 3) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

std::string fmt_int(double v) {
  std::ostringstream os;
  os << static_cast<long long>(std::llround(v));
  return os.str();
}

/// Per-iteration row reconstructed from "iteration" events, decorated with
/// the survivor count of the grid_sync that preceded it (when present).
struct IterationRow {
  long long index = 0;
  double secs = 0;
  std::string status;
  long long pairs = 0;
  long long edges_added = 0;
  long long ties_added = 0;
  std::optional<long long> survivors;
};

/// Everything reconstructed for one run id.
struct RunReport {
  std::string id;
  std::optional<JsonObject> start;
  std::optional<JsonObject> end;
  std::vector<IterationRow> iterations;
  // Solver-time breakdown: component -> (count, total seconds).
  std::map<std::string, std::pair<long long, double>> components;
  // Oracle answers: "compare/first", "compare/tie", "rank", ... -> count.
  std::map<std::string, long long> oracle;
  long long pref_edges = 0;
  long long pref_cycles = 0;
  // The survivor count of the most recent grid_sync, attached to the next
  // iteration event (the sync happens inside that iteration's solver call).
  std::optional<long long> pending_survivors;
  // The synthesizer's static-analysis lint summary ("analysis", kind=lint).
  std::optional<JsonObject> lint;
  // Z3 encoding reuse / rebuild (z3_incremental events, docs/SOLVER.md).
  long long incremental_reuses = 0;
  long long incremental_builds = 0;
  // Batched lane evaluator (schema rev 1.5): grid_sync's selected lane ISA
  // ("scalar" / "avx2") -> sync count, plus the reported lane width.
  std::map<std::string, long long> lane_isas;
  long long lane_width = 0;
  // Service events (schema rev 1.4): verb -> (count, errors, total seconds)
  // from serve_request, plus session swap / rehydrate tallies.
  std::map<std::string, std::tuple<long long, long long, double>> serve;
  long long swaps = 0;
  long long rehydrations = 0;
  // Where a served answer's time goes (schema rev 1.11): layer ->
  // (count, total seconds) for session_rehydrate, session_advance and
  // answer_append, plus the advances' finder queries and the logged answers
  // they replayed (a rehydrated session replays only in its advances; since
  // 1.12 session_rehydrate carries no count of its own).
  std::map<std::string, std::pair<long long, double>> answer_layers;
  long long advance_queries = 0;
  long long advance_replayed = 0;
  // Event kinds this report does not understand (a newer producer's schema
  // revision, or one an older revision had and a later one removed, such as
  // "solver_cache" and "analysis" kind=prune (1.7), "portfolio" (1.8) or
  // the interval pre-check's event (1.9)): tallied and rendered rather than
  // silently dropped.
  std::map<std::string, long long> unknown;
  long long events = 0;
};

void absorb(RunReport& run, const JsonObject& obj, const std::string& ev) {
  ++run.events;
  JsonFields f(obj);
  if (ev == "run_start") {
    run.start = obj;
  } else if (ev == "run_end") {
    run.end = obj;
  } else if (ev == "iteration") {
    IterationRow row;
    row.index = static_cast<long long>(f.number("index").value_or(0));
    row.secs = f.number("secs").value_or(0);
    row.status = f.string("status").value_or("?");
    row.pairs =
        static_cast<long long>(f.number("pairs_presented").value_or(0));
    row.edges_added =
        static_cast<long long>(f.number("edges_added").value_or(0));
    row.ties_added = static_cast<long long>(f.number("ties_added").value_or(0));
    row.survivors = run.pending_survivors;
    run.pending_survivors.reset();
    run.iterations.push_back(row);
  } else if (ev == "grid_sync" || ev == "pair_search" || ev == "z3_query") {
    auto& [count, secs] = run.components[ev];
    ++count;
    secs += f.number("secs").value_or(0);
    if (ev == "grid_sync") {
      run.pending_survivors =
          static_cast<long long>(f.number("survivors").value_or(0));
      const std::string isa = f.string("lane_isa").value_or("");
      if (!isa.empty()) {
        ++run.lane_isas[isa];
        run.lane_width =
            std::max(run.lane_width,
                     static_cast<long long>(f.number("lane_width").value_or(0)));
      }
    }
  } else if (ev == "analysis") {
    const std::string kind = f.string("kind").value_or("?");
    if (kind == "lint") {
      run.lint = obj;
    } else {
      ++run.unknown[ev + "/" + kind];
    }
  } else if (ev == "z3_incremental") {
    if (f.string("op").value_or("?") == "reuse") {
      ++run.incremental_reuses;
    } else {
      ++run.incremental_builds;
    }
  } else if (ev == "oracle_query") {
    const std::string kind = f.string("kind").value_or("?");
    std::string key = kind;
    if (kind == "compare") key += "/" + f.string("answer").value_or("?");
    ++run.oracle[key];
  } else if (ev == "pref_edge") {
    const std::string result = f.string("result").value_or("?");
    if (result == "added") ++run.pref_edges;
    if (result == "cycle") ++run.pref_cycles;
  } else if (ev == "serve_request") {
    auto& [count, errors, secs] = run.serve[f.string("verb").value_or("?")];
    ++count;
    if (!f.boolean("ok").value_or(false)) ++errors;
    secs += f.number("secs").value_or(0);
  } else if (ev == "session_swap") {
    ++run.swaps;
  } else if (ev == "session_rehydrate") {
    ++run.rehydrations;
    auto& [count, secs] = run.answer_layers["rehydrate"];
    ++count;
    secs += f.number("secs").value_or(0);
  } else if (ev == "session_advance" || ev == "answer_append") {
    auto& [count, secs] =
        run.answer_layers[ev == "session_advance" ? "advance" : "log append"];
    ++count;
    secs += f.number("secs").value_or(0);
    if (ev == "session_advance") {
      run.advance_queries +=
          static_cast<long long>(f.number("finder_queries").value_or(0));
      run.advance_replayed +=
          static_cast<long long>(f.number("replayed").value_or(0));
    }
  } else if (ev == "fault" || ev == "retry" || ev == "checkpoint" ||
             ev == "checkpoint_write") {
    // Known but not tabulated here; sessions' reports cover them.
  } else if (!ev.empty()) {
    // A future schema revision's event: keep the report usable, tally it.
    ++run.unknown[ev];
  }
}

void render_run(std::ostream& os, const RunReport& run) {
  os << "## Run `" << (run.id.empty() ? "(unnamed)" : run.id) << "`\n\n";

  if (run.start) {
    JsonFields start(*run.start);
    os << "Sketch `" << start.string("sketch").value_or("?") << "`, seed "
       << fmt_int(start.number("seed").value_or(0)) << ", "
       << fmt_int(start.number("initial_scenarios").value_or(0))
       << " initial scenarios, "
       << fmt_int(start.number("pairs_per_iteration").value_or(0))
       << " pair(s)/iteration.\n\n";
  }

  os << "| metric | value |\n|---|---|\n";
  if (run.end) {
    JsonFields end(*run.end);
    os << "| status | " << end.string("status").value_or("?") << " |\n"
       << "| iterations | " << fmt_int(end.number("iterations").value_or(0))
       << " |\n"
       << "| user interactions | "
       << fmt_int(end.number("interactions").value_or(0)) << " |\n"
       << "| oracle comparisons | "
       << fmt_int(end.number("oracle_comparisons").value_or(0)) << " |\n"
       << "| total solver time (s) | "
       << fmt(end.number("total_solver_seconds").value_or(0), 4) << " |\n";
  } else {
    os << "| status | (no run_end event — truncated trace?) |\n";
  }
  os << "| preference edges added | " << run.pref_edges << " |\n";
  if (run.pref_cycles > 0) {
    os << "| contradictions rejected | " << run.pref_cycles << " |\n";
  }
  os << "| trace events | " << run.events << " |\n\n";

  if (run.lint) {
    JsonFields lint(*run.lint);
    os << "Static analysis: ";
    const long long diags =
        static_cast<long long>(lint.number("diagnostics").value_or(0));
    os << diags << " diagnostic(s) ("
       << fmt_int(lint.number("errors").value_or(0)) << " error(s), "
       << fmt_int(lint.number("warnings").value_or(0)) << " warning(s))";
    const double lo = lint.number("out_lo").value_or(std::nan(""));
    const double hi = lint.number("out_hi").value_or(std::nan(""));
    if (std::isfinite(lo) && std::isfinite(hi)) {
      os << ", output in [" << fmt(lo, 3) << ", " << fmt(hi, 3) << "]";
    }
    os << ".\n\n";
  }
  if (!run.lane_isas.empty()) {
    os << "Batched evaluator: ";
    bool first = true;
    for (const auto& [isa, count] : run.lane_isas) {
      if (!first) os << ", ";
      first = false;
      os << count << " sync(s) on " << isa;
    }
    if (run.lane_width > 0) os << ", " << run.lane_width << " lanes";
    os << " (docs/EVALUATOR.md).\n\n";
  }

  // Solver acceleration: only rendered when the run used Z3, so plain
  // grid-backend reports stay unchanged.
  if (run.incremental_reuses + run.incremental_builds > 0) {
    os << "### Solver acceleration\n\n| accelerator | value |\n|---|---|\n"
       << "| incremental encoding reuses / builds | " << run.incremental_reuses
       << " / " << run.incremental_builds << " |\n\n";
  }

  if (!run.serve.empty() || run.swaps > 0 || run.rehydrations > 0 ||
      !run.answer_layers.empty()) {
    os << "### Service requests\n\n"
       << "| verb | count | errors | total s |\n|---|---|---|---|\n";
    for (const auto& [verb, row] : run.serve) {
      const auto& [count, errors, secs] = row;
      os << "| " << verb << " | " << count << " | " << errors << " | "
         << fmt(secs, 4) << " |\n";
    }
    os << "\nSessions swapped out " << run.swaps << " time(s), rehydrated "
       << run.rehydrations << " time(s) (" << run.advance_replayed
       << " answer(s) replayed).\n\n";
    if (!run.answer_layers.empty()) {
      os << "| answer layer | count | total s |\n|---|---|---|\n";
      for (const char* layer : {"rehydrate", "advance", "log append"}) {
        const auto it = run.answer_layers.find(layer);
        if (it == run.answer_layers.end()) continue;
        os << "| " << layer << " | " << it->second.first << " | "
           << fmt(it->second.second, 4) << " |\n";
      }
      os << "\nAdvances ran " << run.advance_queries
         << " finder quer(ies).\n\n";
    }
  }

  if (!run.unknown.empty()) {
    os << "### Unknown events\n\n"
       << "Event kinds this trace_report does not understand (a newer "
          "schema revision, or one removed in 1.7, 1.8 or 1.9); counted, not "
          "dropped.\n\n"
       << "| event | count |\n|---|---|\n";
    for (const auto& [ev, count] : run.unknown) {
      os << "| " << ev << " | " << count << " |\n";
    }
    os << "\n";
  }

  if (!run.components.empty()) {
    double total = 0;
    for (const auto& [name, cs] : run.components) total += cs.second;
    os << "### Solver-time breakdown\n\n"
       << "| component | calls | total s | share |\n|---|---|---|---|\n";
    for (const auto& [name, cs] : run.components) {
      const double share = total > 0 ? 100.0 * cs.second / total : 0;
      os << "| " << name << " | " << cs.first << " | " << fmt(cs.second, 4)
         << " | " << fmt(share, 1) << "% |\n";
    }
    os << "\n";
  }

  if (!run.oracle.empty()) {
    os << "### Oracle answers\n\n| query | count |\n|---|---|\n";
    for (const auto& [key, count] : run.oracle) {
      os << "| " << key << " | " << count << " |\n";
    }
    os << "\n";
  }

  if (!run.iterations.empty()) {
    os << "### Iterations\n\n"
       << "| # | solver s | status | pairs | +edges | +ties | survivors |\n"
       << "|---|---|---|---|---|---|---|\n";
    for (const IterationRow& row : run.iterations) {
      os << "| " << row.index << " | " << fmt(row.secs, 4) << " | "
         << row.status << " | " << row.pairs << " | " << row.edges_added
         << " | " << row.ties_added << " | "
         << (row.survivors ? std::to_string(*row.survivors) : "—") << " |\n";
    }
    os << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string output_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" || arg == "--output") {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return 1;
      }
      output_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: trace_report <trace.jsonl> [-o report.md]\n";
      return 0;
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      std::cerr << "unexpected argument '" << arg << "'\n";
      return 1;
    }
  }
  if (input_path.empty()) {
    std::cerr << "usage: trace_report <trace.jsonl> [-o report.md]\n";
    return 1;
  }

  std::ifstream in(input_path);
  if (!in) {
    std::cerr << "error: cannot open '" << input_path << "'\n";
    return 1;
  }

  // Preserve first-appearance order of runs: map for lookup, vector for order.
  std::map<std::string, std::size_t> run_index;
  std::vector<RunReport> runs;
  long long lines = 0, bad_lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::optional<JsonObject> obj = compsynth::obs::parse_flat_json(line);
    if (!obj) {
      ++bad_lines;
      continue;
    }
    JsonFields f(*obj);
    const std::string run_id = f.string("run").value_or("");
    const std::string ev = f.string("ev").value_or("");
    auto [it, inserted] = run_index.try_emplace(run_id, runs.size());
    if (inserted) {
      runs.emplace_back();
      runs.back().id = run_id;
    }
    absorb(runs[it->second], *obj, ev);
  }

  if (lines == bad_lines) {
    std::cerr << "error: no parseable trace events in '" << input_path << "'\n";
    return 2;
  }

  std::ostringstream report;
  report << "# Trace report: `" << input_path << "`\n\n"
         << (lines - bad_lines) << " events across " << runs.size()
         << " run(s)";
  if (bad_lines > 0) report << " (" << bad_lines << " unparseable lines)";
  report << ".\n\n";
  for (const RunReport& run : runs) render_run(report, run);

  if (output_path.empty()) {
    std::cout << report.str();
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::cerr << "error: cannot write '" << output_path << "'\n";
      return 1;
    }
    out << report.str();
    std::cout << "report written to " << output_path << "\n";
  }
  return 0;
}
