#include "support/protocol_ref.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "support/json_dom.hpp"

namespace mixq::serve {

namespace {

ParsedLine dom_error(std::string message, const JsonValue* id,
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

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

}  // namespace

ParsedLine dom_parse_protocol_line(std::string_view line,
                                   std::int64_t input_numel,
                                   std::size_t max_line_bytes,
                                   std::int64_t default_deadline_ms,
                                   const ModelDirectory* models) {
  ParsedLine p;
  if (line.empty() || line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return dom_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }
  JsonValue v;
  try {
    v = parse_json(line);
  } catch (const std::runtime_error& e) {
    return dom_error(e.what(), nullptr);
  }
  if (!v.is_object()) {
    return dom_error("request must be a JSON object", nullptr);
  }
  if (const JsonValue* cmd = v.find("cmd")) {
    if (!cmd->is_string()) {
      return dom_error("\"cmd\" must be a string", v.find("id"));
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
        return dom_error("\"model\" must be a string", v.find("id"));
      }
      if (path != nullptr && !path->is_string()) {
        return dom_error("\"path\" must be a string", v.find("id"));
      }
      p.kind = ParsedLine::Kind::kReload;
      if (m != nullptr) p.reload_model = m->string;
      if (path != nullptr) p.reload_path = path->string;
      return p;
    }
    return dom_error("unknown cmd \"" + cmd->string + "\"", v.find("id"));
  }

  const JsonValue* id = v.find("id");
  const JsonValue* input = v.find("input");
  if (id == nullptr || !id->is_integer()) {
    return dom_error("missing or non-integer \"id\"", nullptr);
  }
  if (input == nullptr || !input->is_array()) {
    return dom_error("missing \"input\" array", id);
  }
  std::string model_name;
  if (const JsonValue* m = v.find("model")) {
    if (!m->is_string()) {
      return dom_error("\"model\" must be a string", id);
    }
    model_name = m->string;
  }
  std::int64_t want_numel = input_numel;
  if (!model_name.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(model_name) : -1;
    if (n < 0) {
      return dom_error("unknown model \"" + model_name + "\"", id,
                       ErrCode::kNotFound);
    }
    want_numel = n;
  }
  if (static_cast<std::int64_t>(input->array.size()) != want_numel) {
    return dom_error("\"input\" must have " + std::to_string(want_numel) +
                         " elements, got " +
                         std::to_string(input->array.size()),
                     id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (const JsonValue* dl = v.find("deadline_ms")) {
    if (!dl->is_integer() || dl->as_integer() < 1 ||
        dl->as_integer() > kMaxDeadlineMs) {
      return dom_error("\"deadline_ms\" must be an integer in [1, " +
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
      return dom_error("\"input\" elements must be numbers", id);
    }
    p.request.input.push_back(static_cast<float>(x.number));
  }
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

std::string protocol_difference(const ParsedLine& a, const ParsedLine& b) {
  if (a.kind != b.kind) return "kind";
  if (a.kind == ParsedLine::Kind::kError) {
    if (a.code != b.code) return "code";
    if (a.error != b.error) return "error: " + a.error + " | " + b.error;
  }
  if (a.has_id != b.has_id || a.id != b.id) return "id";
  if (a.reload_model != b.reload_model) return "reload_model";
  if (a.reload_path != b.reload_path) return "reload_path";
  const Request& x = a.request;
  const Request& y = b.request;
  if (x.id != y.id) return "request.id";
  if (x.model != y.model) return "request.model";
  if (x.input.size() != y.input.size()) return "request.input size";
  for (std::size_t i = 0; i < x.input.size(); ++i) {
    if (!same_bits(x.input[i], y.input[i])) {
      return "request.input[" + std::to_string(i) + "]";
    }
  }
  const bool x_dl = x.deadline != Clock::time_point::max();
  const bool y_dl = y.deadline != Clock::time_point::max();
  if (x_dl != y_dl) return "request.deadline presence";
  // Both stamp now() + the same delay, moments apart.
  if (x_dl && (x.deadline < y.deadline ||
               x.deadline - y.deadline > std::chrono::seconds(5))) {
    return "request.deadline";
  }
  if (x.client != y.client || x.route != y.route) return "request routing";
  return {};
}

std::string diff_against_reference(std::string_view line) {
  std::int64_t numel = 4;
  try {
    const JsonValue v = parse_json(line);
    if (const JsonValue* in = v.is_object() ? v.find("input") : nullptr;
        in != nullptr && in->is_array()) {
      numel = static_cast<std::int64_t>(in->array.size());
    }
  } catch (const std::runtime_error&) {
    // Malformed: both readings must refuse it alike.
  }
  const ModelDirectory models{{{"default", numel}, {"wide", 7}}};
  constexpr std::size_t kMaxLine = std::size_t{1} << 20;
  return protocol_difference(
      parse_protocol_line(line, numel, kMaxLine, 0, &models),
      dom_parse_protocol_line(line, numel, kMaxLine, 0, &models));
}

}  // namespace mixq::serve
