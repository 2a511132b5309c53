// compsynth_load — load generator and raw protocol client for the
// compsynth_serve daemon (protocol: docs/SERVICE.md).
//
// Drive mode (default) simulates many architects against one daemon. Each
// simulated architect is a scripted oracle: session i draws a latent target
// objective — a deterministic hole assignment of the sketch, from
// util::Rng(seed-base + i) — and answers every distinguishing pair by
// evaluating both scenarios under it client-side (ties within 1e-4, the
// library's FinderConfig::tie_tolerance). Sessions are interleaved: each
// client thread owns a shard and advances every live session one protocol
// step per pass, so a daemon with --max-active below the session count is
// forced to swap and rehydrate continuously.
//
// Usage:
//   compsynth_load --connect <endpoint> --sketch-file <file> [options]
//   compsynth_load request --connect <endpoint> '<json-request-line>'
//
// Drive options:
//   --connect E           unix:<path> or tcp:[host:]<port>
//   --sketch-file F       sketch source for client-side answer evaluation
//                         (must be the daemon's sketch for the sessions)
//   --sessions N          simulated architects (default 16)
//   --threads T           client threads, each with its own connection
//                         (default 4)
//   --prefix P            session ids are <P><i> (default "s")
//   --seed-base N         session i uses synthesis seed and target-draw seed
//                         N + i (default 1)
//   --sketch-name NAME    sketch name sent in create ("" = daemon default)
//   --backend B           create backend (default grid)
//   --initial N / --pairs N / --max-iters N   create parameters
//   --wait-ms N           next long-poll budget (default 2000)
//   --evict-every M       after every M-th answer of a session, evict it —
//                         forces a rehydration on its next step (0 = never)
//   --stop-after-answers K  stop driving a session after K answers this run,
//                         leaving it parked mid-interaction (kill/resume
//                         rehearsal; 0 = drive to completion)
//   --continue            do not create sessions — drive ids that already
//                         exist on the daemon (the resume half of the
//                         kill/resume rehearsal)
//   --shutdown            send a daemon shutdown after the run
//   --out FILE            write a BENCH_serve.json-shaped report
//
// Raw mode sends one request line verbatim and prints the response line —
// the scripts' and docs' probe for individual verbs and error codes.
//
// Exit status: 0 when every session reached its goal (done, or K answers
// with --stop-after-answers), 1 on usage errors, 2 when any session failed
// or the transport broke.
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/line_client.h"
#include "serve/protocol.h"
#include "sketch/eval.h"
#include "sketch/parser.h"
#include "util/rng.h"
#include "util/timer.h"

#include "flag_value.h"

namespace {

using namespace compsynth;

// --- Blocking line-protocol client -----------------------------------------

// Thin wrapper over serve::LineClient. The connect retry matters: scripts
// often start compsynth_load the moment they fork the daemon, racing its
// bind — the first connect then sees ECONNREFUSED (tcp) or ENOENT (unix
// path not created yet). LineClient retries exactly those errnos with
// backoff, so the race resolves itself instead of failing the run.
class Client {
 public:
  explicit Client(const std::string& endpoint) {
    serve::LineClientConfig config;
    config.endpoint = endpoint;
    config.connect_retry.max_attempts = 25;
    config.connect_retry.initial_backoff_s = 0.02;
    config.connect_retry.backoff_multiplier = 1.5;
    config.connect_retry.max_backoff_s = 0.25;
    impl_ = std::make_unique<serve::LineClient>(std::move(config));
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and blocks for the one response line.
  std::string request(const std::string& line) { return impl_->request(line); }

 private:
  std::unique_ptr<serve::LineClient> impl_;
};

// --- Options ---------------------------------------------------------------

struct Options {
  std::string connect;
  std::string sketch_file;
  int sessions = 16;
  int threads = 4;
  std::string prefix = "s";
  std::uint64_t seed_base = 1;
  std::string sketch_name;
  std::string backend = "grid";
  int initial = 5;
  int pairs = 1;
  int max_iters = 500;
  int wait_ms = 2000;
  int evict_every = 0;
  int stop_after_answers = 0;
  bool continue_mode = false;
  bool shutdown = false;
  std::optional<std::string> out_path;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --connect <endpoint> --sketch-file <file> [--sessions N]\n"
               "  [--threads T] [--prefix P] [--seed-base N] [--sketch-name S]\n"
               "  [--backend B] [--initial N] [--pairs N] [--max-iters N]\n"
               "  [--wait-ms N] [--evict-every M] [--stop-after-answers K]\n"
               "  [--continue] [--shutdown] [--out FILE]\n"
               "   or: " << argv0
            << " request --connect <endpoint> '<json-line>'\n";
  return 1;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    auto next_number = [&](auto& slot) {
      const auto v = next();
      return v && tools::parse_flag_value(arg, *v, slot);
    };
    if (arg == "--connect") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.connect = *v;
    } else if (arg == "--sketch-file") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.sketch_file = *v;
    } else if (arg == "--sessions") {
      if (!next_number(opt.sessions)) return std::nullopt;
    } else if (arg == "--threads") {
      if (!next_number(opt.threads)) return std::nullopt;
    } else if (arg == "--prefix") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.prefix = *v;
    } else if (arg == "--seed-base") {
      if (!next_number(opt.seed_base)) return std::nullopt;
    } else if (arg == "--sketch-name") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.sketch_name = *v;
    } else if (arg == "--backend") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.backend = *v;
    } else if (arg == "--initial") {
      if (!next_number(opt.initial)) return std::nullopt;
    } else if (arg == "--pairs") {
      if (!next_number(opt.pairs)) return std::nullopt;
    } else if (arg == "--max-iters") {
      if (!next_number(opt.max_iters)) return std::nullopt;
    } else if (arg == "--wait-ms") {
      if (!next_number(opt.wait_ms)) return std::nullopt;
    } else if (arg == "--evict-every") {
      if (!next_number(opt.evict_every)) return std::nullopt;
    } else if (arg == "--stop-after-answers") {
      if (!next_number(opt.stop_after_answers)) return std::nullopt;
    } else if (arg == "--continue") {
      opt.continue_mode = true;
    } else if (arg == "--shutdown") {
      opt.shutdown = true;
    } else if (arg == "--out") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.out_path = *v;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (opt.connect.empty() || opt.sketch_file.empty() || opt.sessions < 1 ||
      opt.threads < 1) {
    return std::nullopt;
  }
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- Drive mode ------------------------------------------------------------

/// One simulated architect: session id + latent target assignment.
struct Driver {
  std::string id;
  std::uint64_t seed = 1;
  sketch::HoleAssignment target;
  bool created = false;
  bool done = false;     // daemon reported done (or failed)
  bool failed = false;
  bool stopped = false;  // hit --stop-after-answers
  int answers = 0;       // answers sent by THIS run
};

struct Totals {
  std::atomic<long> answers{0};
  std::atomic<long> evictions{0};
  std::atomic<long> completed{0};
  std::atomic<long> failed{0};
  std::atomic<long> stopped{0};
};

class LoadRun {
 public:
  LoadRun(const Options& opt, sketch::Sketch sk)
      : opt_(opt), sketch_(std::move(sk)) {}

  int run() {
    std::vector<Driver> drivers(static_cast<std::size_t>(opt_.sessions));
    for (int i = 0; i < opt_.sessions; ++i) {
      Driver& d = drivers[static_cast<std::size_t>(i)];
      d.id = opt_.prefix + std::to_string(i);
      d.seed = opt_.seed_base + static_cast<std::uint64_t>(i);
      util::Rng rng(d.seed);
      for (const sketch::HoleSpec& hole : sketch_.holes()) {
        d.target.index.push_back(rng.uniform_int(0, hole.count - 1));
      }
    }

    const util::Stopwatch wall;
    std::vector<std::thread> threads;
    const int t_count = std::min(opt_.threads, opt_.sessions);
    threads.reserve(static_cast<std::size_t>(t_count));
    for (int t = 0; t < t_count; ++t) {
      threads.emplace_back([this, t, t_count, &drivers] {
        try {
          Client client(opt_.connect);
          // Round-robin shard; one protocol step per live session per pass
          // keeps the daemon's working set as interleaved as possible.
          bool live = true;
          while (live) {
            live = false;
            for (int i = t; i < opt_.sessions; i += t_count) {
              Driver& d = drivers[static_cast<std::size_t>(i)];
              if (d.done || d.failed || d.stopped) continue;
              step(client, d);
              if (!(d.done || d.failed || d.stopped)) live = true;
            }
          }
        } catch (const std::exception& ex) {
          std::lock_guard<std::mutex> lk(io_mu_);
          std::cerr << "client thread " << t << ": " << ex.what() << "\n";
          transport_failed_ = true;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_seconds = wall.elapsed_seconds();

    for (const Driver& d : drivers) {
      if (d.failed) {
        totals_.failed.fetch_add(1);
      } else if (d.done) {
        totals_.completed.fetch_add(1);
      } else if (d.stopped) {
        totals_.stopped.fetch_add(1);
      }
    }

    // Daemon-wide stats (and optional shutdown) on a fresh connection.
    obs::JsonObject daemon_stats;
    try {
      Client client(opt_.connect);
      serve::Request inspect;
      inspect.verb = serve::Verb::kInspect;
      const std::string response =
          timed(client, "inspect", serve::render_request(inspect));
      if (auto parsed = obs::parse_flat_json(response)) {
        daemon_stats = *parsed;
      }
      if (opt_.shutdown) {
        serve::Request req;
        req.verb = serve::Verb::kShutdown;
        timed(client, "shutdown", serve::render_request(req));
      }
    } catch (const std::exception& ex) {
      std::cerr << "final inspect: " << ex.what() << "\n";
      transport_failed_ = true;
    }

    report(wall_seconds, daemon_stats);

    const bool ok = !transport_failed_ && totals_.failed.load() == 0;
    return ok ? 0 : 2;
  }

 private:
  /// Sends one request, records its latency under `verb`.
  std::string timed(Client& client, const std::string& verb,
                    const std::string& line) {
    const util::Stopwatch watch;
    std::string response = client.request(line);
    metrics_.histogram(verb).record(watch.elapsed_seconds());
    return response;
  }

  /// The response parsed, when it is flat JSON with "ok":true.
  static std::optional<obs::JsonObject> ok_response(const std::string& line) {
    std::optional<obs::JsonObject> parsed = obs::parse_flat_json(line);
    if (!parsed || !obs::JsonFields(*parsed).boolean("ok").value_or(false)) {
      return std::nullopt;
    }
    return parsed;
  }

  void fail(Driver& d, const std::string& what) {
    d.failed = true;
    std::lock_guard<std::mutex> lk(io_mu_);
    std::cerr << d.id << ": " << what << "\n";
  }

  /// One protocol step for one session: create it if needed, otherwise poll
  /// `next` and answer the pending pair under the latent target.
  void step(Client& client, Driver& d) {
    if (!d.created && !opt_.continue_mode) {
      serve::Request req;
      req.verb = serve::Verb::kCreate;
      req.session = d.id;
      req.sketch = opt_.sketch_name;
      req.backend = opt_.backend;
      req.seed = d.seed;
      req.initial = opt_.initial;
      req.pairs = opt_.pairs;
      req.max_iters = opt_.max_iters;
      const std::string response =
          timed(client, "create", serve::render_request(req));
      if (!ok_response(response)) {
        fail(d, "create failed: " + response);
        return;
      }
      d.created = true;
      return;
    }
    d.created = true;

    serve::Request req;
    req.verb = serve::Verb::kNext;
    req.session = d.id;
    req.wait_ms = opt_.wait_ms;
    const std::string response =
        timed(client, "next", serve::render_request(req));
    const std::optional<obs::JsonObject> parsed = ok_response(response);
    if (!parsed) {
      fail(d, "next failed: " + response);
      return;
    }
    obs::JsonFields f(*parsed);
    const std::string phase = f.string("phase").value_or("");
    if (phase == "done") {
      d.done = true;
      return;
    }
    if (phase == "failed") {
      fail(d, "session failed: " + f.string("error").value_or(""));
      return;
    }
    if (phase != "waiting") return;  // advancing; try again next pass

    const auto a = serve::decode_metrics(f.string("a").value_or(""));
    const auto b = serve::decode_metrics(f.string("b").value_or(""));
    const std::optional<long long> index =
        f.integer("index", 0, serve::kMaxIndex);
    if (!a || !b || !index) {
      fail(d, "unparseable pending pair: " + response);
      return;
    }
    if (opt_.stop_after_answers > 0 && d.answers >= opt_.stop_after_answers) {
      d.stopped = true;
      return;
    }
    const double va = sketch::eval(sketch_, d.target, *a);
    const double vb = sketch::eval(sketch_, d.target, *b);
    oracle::Preference pref = oracle::Preference::kTie;
    if (va > vb + kTieTolerance) pref = oracle::Preference::kFirst;
    if (vb > va + kTieTolerance) pref = oracle::Preference::kSecond;

    serve::Request ans;
    ans.verb = serve::Verb::kAnswer;
    ans.session = d.id;
    ans.index = static_cast<long>(*index);
    ans.answer = pref;
    const std::string ans_response =
        timed(client, "answer", serve::render_request(ans));
    if (!ok_response(ans_response)) {
      fail(d, "answer failed: " + ans_response);
      return;
    }
    ++d.answers;
    totals_.answers.fetch_add(1);

    if (opt_.evict_every > 0 && d.answers % opt_.evict_every == 0) {
      serve::Request evict;
      evict.verb = serve::Verb::kEvict;
      evict.session = d.id;
      const std::string ev_response =
          timed(client, "evict", serve::render_request(evict));
      if (!ok_response(ev_response)) {
        fail(d, "evict failed: " + ev_response);
        return;
      }
      totals_.evictions.fetch_add(1);
    }
  }

  void report(double wall_seconds, const obs::JsonObject& daemon_stats) {
    long requests = 0;
    for (const auto& [name, hist] : metrics_.histograms()) {
      requests += hist->count();
    }
    const double rps = wall_seconds > 0 ? requests / wall_seconds : 0;

    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"serve\",\n";
    out << "  \"endpoint\": \"" << obs::json_escape(opt_.connect) << "\",\n";
    out << "  \"sessions\": " << opt_.sessions << ",\n";
    out << "  \"threads\": " << opt_.threads << ",\n";
    out << "  \"completed\": " << totals_.completed.load() << ",\n";
    out << "  \"stopped_early\": " << totals_.stopped.load() << ",\n";
    out << "  \"failed\": " << totals_.failed.load() << ",\n";
    out << "  \"answers\": " << totals_.answers.load() << ",\n";
    out << "  \"evictions\": " << totals_.evictions.load() << ",\n";
    out << "  \"requests\": " << requests << ",\n";
    out << "  \"wall_seconds\": " << wall_seconds << ",\n";
    out << "  \"requests_per_sec\": " << rps << ",\n";
    out << "  \"latency_seconds\": {\n";
    const auto histograms = metrics_.histograms();
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const auto& [name, hist] = histograms[i];
      out << "    \"" << obs::json_escape(name) << "\": {"
          << "\"count\": " << hist->count() << ", \"mean\": " << hist->mean()
          << ", \"p50\": " << hist->quantile(0.5)
          << ", \"p99\": " << hist->quantile(0.99) << ", \"max\": "
          << hist->max() << "}" << (i + 1 < histograms.size() ? "," : "")
          << "\n";
    }
    out << "  },\n";
    out << "  \"daemon\": {";
    const char* keys[] = {"sessions_created", "resident", "swaps",
                          "rehydrations", "advances"};
    bool first = true;
    obs::JsonFields stats(daemon_stats);
    for (const char* key : keys) {
      const std::optional<double> value = stats.number(key);
      if (!value) continue;
      out << (first ? "" : ", ") << "\"" << key
          << "\": " << static_cast<long>(*value);
      first = false;
    }
    out << "}\n";
    out << "}\n";

    const std::string rendered = out.str();
    if (opt_.out_path) {
      std::ofstream f(*opt_.out_path);
      f << rendered;
    }
    std::cout << rendered;
  }

  static constexpr double kTieTolerance = 1e-4;

  const Options& opt_;
  sketch::Sketch sketch_;
  obs::MetricsRegistry metrics_;
  Totals totals_;
  std::mutex io_mu_;
  std::atomic<bool> transport_failed_{false};
};

// --- Raw mode --------------------------------------------------------------

int raw_mode(int argc, char** argv) {
  std::string connect;
  std::string line;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (line.empty()) {
      line = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (connect.empty() || line.empty()) return usage(argv[0]);
  try {
    Client client(connect);
    std::cout << client.request(line) << "\n";
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "compsynth_load: " << ex.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "request") {
    return raw_mode(argc, argv);
  }
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) return usage(argv[0]);
  try {
    sketch::Sketch sk = sketch::parse_sketch(read_file(opt->sketch_file));
    LoadRun run(*opt, std::move(sk));
    return run.run();
  } catch (const std::exception& ex) {
    std::cerr << "compsynth_load: " << ex.what() << "\n";
    return 2;
  }
}
