#include "serve/server.h"

#include <utility>
#include <variant>

#include "obs/trace.h"
#include "util/timer.h"

namespace compsynth::serve {

Server::Server(ServerConfig config, SessionHost& host)
    : config_(std::move(config)),
      host_(host),
      line_server_(LineServerConfig{config_.listen, config_.backlog},
                   [this](const std::string& line, LineControl* ctl) {
                     bool stop_after = false;
                     std::string response = handle_line(line, &stop_after);
                     ctl->stop_after = stop_after;
                     return response;
                   }) {}

std::string Server::endpoint() const { return line_server_.endpoint(); }

void Server::start() { line_server_.start(); }

void Server::stop() { line_server_.stop(); }

void Server::wait() {
  line_server_.wait();
  host_.drain();
}

std::string Server::handle_line(const std::string& line, bool* stop_after) {
  const util::Stopwatch watch;
  std::variant<Request, ParseError> parsed = parse_request(line);
  std::string response;
  std::string verb_label = "invalid";
  std::string session;
  bool ok = false;
  std::string code;

  if (const ParseError* err = std::get_if<ParseError>(&parsed)) {
    code = err->code;
    response = error_response(err->code, err->message);
  } else {
    const Request& req = std::get<Request>(parsed);
    verb_label = verb_name(req.verb);
    session = req.session;
    try {
      switch (req.verb) {
        case Verb::kCreate: {
          CreateParams params;
          params.id = req.session;
          params.sketch = req.sketch;
          params.backend = req.backend;
          params.seed = req.seed;
          params.initial = req.initial;
          params.pairs = req.pairs;
          params.max_iters = req.max_iters;
          const HostResult r = host_.create(params);
          if (r.ok) {
            ok = true;
            response =
                ok_response(Verb::kCreate).str("session", req.session).done();
          } else {
            code = r.code;
            response = error_response(r.code, r.message);
          }
          break;
        }
        case Verb::kNext: {
          SessionView view;
          const HostResult r = host_.next(req.session, req.wait_ms, &view);
          if (!r.ok) {
            code = r.code;
            response = error_response(r.code, r.message);
            break;
          }
          ok = true;
          obs::JsonWriter w = ok_response(Verb::kNext);
          w.str("session", view.id)
              .str("phase", phase_name(view.phase))
              .integer("answers", view.answers)
              .integer("iterations", view.iterations);
          if (view.pending) {
            w.integer("index", view.pending->index)
                .str("a", scenario_key(view.pending->a))
                .str("b", scenario_key(view.pending->b));
          }
          if (view.phase == SessionPhase::kDone) {
            w.str("status", view.status).str("objective", view.objective);
          }
          if (view.phase == SessionPhase::kFailed) {
            w.str("error", view.error);
          }
          response = w.done();
          break;
        }
        case Verb::kAnswer: {
          const HostResult r = host_.answer(req.session, req.index, req.answer);
          if (r.ok) {
            ok = true;
            response = ok_response(Verb::kAnswer)
                           .str("session", req.session)
                           .integer("index", req.index)
                           .done();
          } else {
            code = r.code;
            response = error_response(r.code, r.message);
          }
          break;
        }
        case Verb::kInspect: {
          if (req.session.empty()) {
            const HostStats stats = host_.stats();
            ok = true;
            response = ok_response(Verb::kInspect)
                           .integer("sessions_created", stats.sessions_created)
                           .integer("resident", stats.sessions_resident)
                           .integer("swaps", stats.swaps)
                           .integer("rehydrations", stats.rehydrations)
                           .integer("advances", stats.advances)
                           .done();
            break;
          }
          SessionView view;
          const HostResult r = host_.inspect(req.session, &view);
          if (!r.ok) {
            code = r.code;
            response = error_response(r.code, r.message);
            break;
          }
          ok = true;
          obs::JsonWriter w = ok_response(Verb::kInspect);
          w.str("session", view.id)
              .str("phase", phase_name(view.phase))
              .boolean("resident", view.resident)
              .integer("answers", view.answers)
              .integer("iterations", view.iterations);
          if (view.phase == SessionPhase::kDone) {
            w.str("status", view.status).str("objective", view.objective);
          }
          if (view.phase == SessionPhase::kFailed) {
            w.str("error", view.error);
          }
          response = w.done();
          break;
        }
        case Verb::kEvict: {
          const HostResult r = host_.evict(req.session);
          if (r.ok) {
            ok = true;
            response = ok_response(Verb::kEvict)
                           .str("session", req.session)
                           .done();
          } else {
            code = r.code;
            response = error_response(r.code, r.message);
          }
          break;
        }
        case Verb::kShutdown: {
          ok = true;
          response = ok_response(Verb::kShutdown).done();
          *stop_after = true;  // caller stops after the response is sent
          break;
        }
      }
    } catch (const std::exception& ex) {
      code = kErrInternal;
      response = error_response(kErrInternal, ex.what());
    }
  }

  const double secs = watch.elapsed_seconds();
  config_.obs.count("serve.requests");
  if (!ok) config_.obs.count("serve.errors");
  config_.obs.observe("serve.latency." + verb_label + ".seconds", secs);
  if (config_.obs.tracing()) {
    obs::TraceEvent ev("serve_request");
    ev.str("verb", verb_label);
    if (!session.empty()) ev.str("session", session);
    ev.boolean("ok", ok);
    if (!code.empty()) ev.str("code", code);
    ev.num("secs", secs);
    config_.obs.emit(ev);
  }
  return response;
}

}  // namespace compsynth::serve
