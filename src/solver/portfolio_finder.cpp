#include "solver/portfolio_finder.h"

#include <charconv>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace compsynth::solver {

namespace {

[[noreturn]] void bad_state(const std::string& why) {
  throw std::invalid_argument("PortfolioFinder::restore_state: " + why);
}

/// Reads one "<tag> <nbytes>\n<blob>\n" section starting at `pos`.
std::string read_section(const std::string& state, std::size_t& pos,
                         const std::string& tag) {
  const std::string header = tag + ' ';
  if (state.compare(pos, header.size(), header) != 0) {
    bad_state("expected section '" + tag + "'");
  }
  pos += header.size();
  const std::size_t eol = state.find('\n', pos);
  if (eol == std::string::npos) bad_state("truncated section header");
  // Digits only: from_chars takes no sign or whitespace for an unsigned
  // type (std::stoul would, and would read "-1" as SIZE_MAX).
  const char* first = state.data() + pos;
  const char* last = state.data() + eol;
  std::size_t bytes = 0;
  const auto [end, ec] = std::from_chars(first, last, bytes);
  if (ec != std::errc() || end != last) bad_state("malformed section length");
  pos = eol + 1;
  // pos <= state.size() here, so the subtraction cannot wrap; the blob and
  // its trailing newline must both fit.
  if (bytes >= state.size() - pos || state[pos + bytes] != '\n') {
    bad_state("section '" + tag + "' overruns the payload");
  }
  std::string blob = state.substr(pos, bytes);
  pos += bytes + 1;
  return blob;
}

}  // namespace

PortfolioFinder::PortfolioFinder(sketch::Sketch sketch, GridFinderConfig grid,
                                 Viability viability, ScenarioDomain domain)
    : grid_(std::make_unique<GridFinder>(sketch, grid, viability, domain)),
      z3_(std::make_unique<Z3Finder>(std::move(sketch), grid.base,
                                     std::move(viability), std::move(domain))) {}

void PortfolioFinder::set_run_context(const obs::RunContext* ctx) {
  CandidateFinder::set_run_context(ctx);
  grid_->set_run_context(ctx);
  z3_->set_run_context(ctx);
}

FinderResult PortfolioFinder::find_distinguishing(
    const pref::PreferenceGraph& graph, int num_pairs) {
  FinderResult grid_result = grid_->find_distinguishing(graph, num_pairs);
  // A grid pair and an empty grid version space are exact. The grid's
  // unique-ranking verdict is only a sample, so Z3 answers the same query
  // instead: its UNSAT is the paper's stopping rule.
  if (grid_result.status == FinderStatus::kFound ||
      grid_result.status == FinderStatus::kNoCandidate) {
    return grid_result;
  }
  return z3_->find_distinguishing(graph, num_pairs);
}

std::optional<sketch::HoleAssignment> PortfolioFinder::find_consistent(
    const pref::PreferenceGraph& graph) {
  return grid_->find_consistent(graph);
}

std::string PortfolioFinder::save_state() const {
  const std::string grid_blob = grid_->save_state();
  const std::string z3_blob = z3_->save_state();
  std::string out = "portfolio 1\n";
  out += "grid " + std::to_string(grid_blob.size()) + "\n" + grid_blob + "\n";
  out += "z3 " + std::to_string(z3_blob.size()) + "\n" + z3_blob + "\n";
  return out;
}

void PortfolioFinder::restore_state(const std::string& state) {
  std::size_t pos = 0;
  const std::string header = "portfolio 1\n";
  if (state.compare(0, header.size(), header) != 0) {
    bad_state("bad header (want 'portfolio 1')");
  }
  pos = header.size();
  const std::string grid_blob = read_section(state, pos, "grid");
  const std::string z3_blob = read_section(state, pos, "z3");
  if (pos != state.size()) bad_state("trailing bytes after sections");
  grid_->restore_state(grid_blob);
  z3_->restore_state(z3_blob);
}

}  // namespace compsynth::solver
