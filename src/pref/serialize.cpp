#include "pref/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/number.h"

namespace compsynth::pref {

namespace {

using util::format_double;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw SerializeError("line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

void serialize(const PreferenceGraph& graph, std::ostream& out) {
  out << "# compsynth preference graph v1\n";
  for (VertexId v = 0; v < graph.vertex_count(); ++v) {
    out << "scenario " << v;
    for (const double m : graph.scenario(v).metrics) out << ' ' << format_double(m);
    out << '\n';
    // Labels ride in a separate directive so v1 readers that predate them
    // would fail loudly (unknown directive) rather than mis-parse metrics.
    if (!graph.scenario(v).label.empty()) {
      out << "label " << v << ' ' << graph.scenario(v).label << '\n';
    }
  }
  for (const Edge& e : graph.edges()) {
    out << "prefer " << e.better << ' ' << e.worse << ' ' << format_double(e.weight)
        << '\n';
  }
  for (const auto& [a, b] : graph.ties()) {
    out << "tie " << a << ' ' << b << '\n';
  }
}

std::string serialize(const PreferenceGraph& graph) {
  std::ostringstream os;
  serialize(graph, os);
  return os.str();
}

PreferenceGraph deserialize(std::istream& in, bool allow_inconsistent) {
  PreferenceGraph graph(allow_inconsistent);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive) || directive[0] == '#') continue;

    if (directive == "scenario") {
      VertexId id = 0;
      if (!(ls >> id)) fail(line_no, "scenario: missing id");
      if (id != graph.vertex_count()) {
        fail(line_no, "scenario ids must be dense and ascending (expected " +
                          std::to_string(graph.vertex_count()) + ")");
      }
      Scenario s;
      double m = 0;
      while (ls >> m) s.metrics.push_back(m);
      if (s.metrics.empty()) fail(line_no, "scenario: no metric values");
      if (!ls.eof()) fail(line_no, "scenario: trailing garbage");
      // intern() would deduplicate identical scenarios and break the dense-id
      // invariant; files written by serialize() never contain duplicates.
      if (graph.find(s).has_value()) fail(line_no, "duplicate scenario");
      graph.intern(s);
    } else if (directive == "prefer") {
      VertexId better = 0, worse = 0;
      double weight = 1;
      if (!(ls >> better >> worse >> weight)) fail(line_no, "prefer: expected 3 fields");
      if (better >= graph.vertex_count() || worse >= graph.vertex_count()) {
        fail(line_no, "prefer: unknown scenario id");
      }
      const AddResult r = graph.add_preference(better, worse, weight);
      if (r == AddResult::kSelfLoop) fail(line_no, "prefer: self loop");
      if (r == AddResult::kCycle) {
        fail(line_no, "prefer: closes a cycle (load with allow_inconsistent "
                      "to keep and repair)");
      }
    } else if (directive == "label") {
      VertexId id = 0;
      if (!(ls >> id)) fail(line_no, "label: missing id");
      if (id >= graph.vertex_count()) fail(line_no, "label: unknown scenario id");
      // Everything after "label <id> " is the label, verbatim (UTF-8 safe:
      // the text is never inspected byte-wise, only the leading ASCII space
      // separator is stripped).
      std::string text;
      std::getline(ls, text);
      if (!text.empty() && text.front() == ' ') text.erase(text.begin());
      if (text.empty()) fail(line_no, "label: empty label text");
      graph.set_label(id, text);
    } else if (directive == "tie") {
      VertexId a = 0, b = 0;
      if (!(ls >> a >> b)) fail(line_no, "tie: expected 2 ids");
      if (a >= graph.vertex_count() || b >= graph.vertex_count()) {
        fail(line_no, "tie: unknown scenario id");
      }
      graph.add_tie(a, b);
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }
  return graph;
}

PreferenceGraph deserialize(const std::string& text, bool allow_inconsistent) {
  std::istringstream is(text);
  return deserialize(is, allow_inconsistent);
}

}  // namespace compsynth::pref
