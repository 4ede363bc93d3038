#include "serve/protocol.hpp"

#include <chrono>
#include <stdexcept>

#include "serve/json.hpp"

namespace mixq::serve {

const char* err_code_slug(ErrCode code) {
  switch (code) {
    case ErrCode::kMalformed: return "malformed";
    case ErrCode::kTimeout: return "timeout";
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kInternal: return "internal";
    case ErrCode::kNotFound: return "not_found";
    case ErrCode::kReloadFailed: return "reload_failed";
  }
  return "internal";
}

bool err_code_retryable(ErrCode code) {
  // A timed-out request was never executed, so resubmitting it is safe;
  // malformed bytes can never succeed on retry, and neither can a request
  // naming a model the registry does not hold (the model SET is fixed at
  // startup -- only a model's content is swappable). A failed reload IS
  // retryable: the same command succeeds once the image at that path is
  // replaced with a valid one.
  return code != ErrCode::kMalformed && code != ErrCode::kNotFound;
}

std::string format_error_line(ErrCode code, std::string_view message,
                              const std::int64_t* id,
                              std::int64_t retry_after_ms) {
  std::string line = "{\"error\":";
  append_json_string(line, message);
  line += ",\"code\":\"";
  line += err_code_slug(code);
  line += "\",\"retryable\":";
  line += err_code_retryable(code) ? "true" : "false";
  if (id != nullptr) {
    line += ",\"id\":" + std::to_string(*id);
  }
  if (retry_after_ms >= 0) {
    line += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  line += "}";
  return line;
}

namespace {

ParsedLine make_error(std::string message, const JsonValue* id,
                      ErrCode code = ErrCode::kMalformed) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.code = code;
  p.error = std::move(message);
  if (id != nullptr && id->is_integer()) {
    p.has_id = true;
    p.id = id->as_integer();
  }
  return p;
}

}  // namespace

ParsedLine parse_protocol_line(std::string_view line, std::int64_t input_numel,
                               std::size_t max_line_bytes,
                               std::int64_t default_deadline_ms,
                               const ModelDirectory* models) {
  ParsedLine p;
  if (line.empty() || line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return make_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }
  JsonValue v;
  try {
    v = parse_json(line);
  } catch (const std::runtime_error& e) {
    return make_error(e.what(), nullptr);
  }
  if (!v.is_object()) {
    return make_error("request must be a JSON object", nullptr);
  }
  if (const JsonValue* cmd = v.find("cmd")) {
    if (!cmd->is_string()) {
      return make_error("\"cmd\" must be a string", v.find("id"));
    }
    if (cmd->string == "shutdown") {
      p.kind = ParsedLine::Kind::kShutdown;
      return p;
    }
    if (cmd->string == "stats") {
      p.kind = ParsedLine::Kind::kStats;
      return p;
    }
    if (cmd->string == "info") {
      p.kind = ParsedLine::Kind::kInfo;
      return p;
    }
    if (cmd->string == "health") {
      p.kind = ParsedLine::Kind::kHealth;
      return p;
    }
    if (cmd->string == "reload") {
      const JsonValue* m = v.find("model");
      const JsonValue* path = v.find("path");
      if (m != nullptr && !m->is_string()) {
        return make_error("\"model\" must be a string", v.find("id"));
      }
      if (path != nullptr && !path->is_string()) {
        return make_error("\"path\" must be a string", v.find("id"));
      }
      p.kind = ParsedLine::Kind::kReload;
      if (m != nullptr) p.reload_model = m->string;
      if (path != nullptr) p.reload_path = path->string;
      return p;
    }
    return make_error("unknown cmd \"" + cmd->string + "\"", v.find("id"));
  }

  const JsonValue* id = v.find("id");
  const JsonValue* input = v.find("input");
  if (id == nullptr || !id->is_integer()) {
    return make_error("missing or non-integer \"id\"", nullptr);
  }
  if (input == nullptr || !input->is_array()) {
    return make_error("missing \"input\" array", id);
  }
  // The model name routes the request AND selects the input length the
  // array is validated against -- resolution must precede the numel check.
  std::string model_name;
  if (const JsonValue* m = v.find("model")) {
    if (!m->is_string()) {
      return make_error("\"model\" must be a string", id);
    }
    model_name = m->string;
  }
  std::int64_t want_numel = input_numel;
  if (!model_name.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(model_name) : -1;
    if (n < 0) {
      return make_error("unknown model \"" + model_name + "\"", id,
                        ErrCode::kNotFound);
    }
    want_numel = n;
  }
  if (static_cast<std::int64_t>(input->array.size()) != want_numel) {
    return make_error("\"input\" must have " + std::to_string(want_numel) +
                          " elements, got " +
                          std::to_string(input->array.size()),
                      id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (const JsonValue* dl = v.find("deadline_ms")) {
    if (!dl->is_integer() || dl->as_integer() < 1 ||
        dl->as_integer() > kMaxDeadlineMs) {
      return make_error("\"deadline_ms\" must be an integer in [1, " +
                            std::to_string(kMaxDeadlineMs) + "]",
                        id);
    }
    deadline_ms = dl->as_integer();
  }

  p.kind = ParsedLine::Kind::kRequest;
  p.request.id = id->as_integer();
  p.request.model = std::move(model_name);
  p.request.input.reserve(input->array.size());
  for (const JsonValue& x : input->array) {
    if (!x.is_number()) {
      return make_error("\"input\" elements must be numbers", id);
    }
    p.request.input.push_back(static_cast<float>(x.number));
  }
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

}  // namespace mixq::serve
