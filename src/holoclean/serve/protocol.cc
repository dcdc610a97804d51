#include "holoclean/serve/protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "holoclean/util/failpoint.h"

namespace holoclean {
namespace serve {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRegisterDataset:
      return "register_dataset";
    case Op::kDropDataset:
      return "drop_dataset";
    case Op::kListDatasets:
      return "list_datasets";
    case Op::kClean:
      return "clean";
    case Op::kFeedback:
      return "feedback";
    case Op::kExplainStatus:
      return "explain_status";
    case Op::kAppendRows:
      return "append_rows";
  }
  return "unknown";
}

Result<Op> ParseOp(const std::string& name) {
  if (name == "register_dataset") return Op::kRegisterDataset;
  if (name == "drop_dataset") return Op::kDropDataset;
  if (name == "list_datasets") return Op::kListDatasets;
  if (name == "clean") return Op::kClean;
  if (name == "feedback") return Op::kFeedback;
  if (name == "explain_status") return Op::kExplainStatus;
  if (name == "append_rows") return Op::kAppendRows;
  return Status::InvalidArgument("unknown op \"" + name + "\"");
}

std::string ErrorCodeFor(const Status& status) {
  // Load-shedding and deadline rejections travel as kOutOfRange; the
  // message prefix distinguishes a draining server, an expired deadline,
  // and a saturated quota/queue.
  if (status.code() == StatusCode::kOutOfRange) {
    if (status.message().rfind("draining", 0) == 0) return "draining";
    if (status.message().rfind("deadline_exceeded", 0) == 0) {
      return "deadline_exceeded";
    }
    return "overloaded";
  }
  if (IsTimeout(status)) return "timeout";
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    default:
      return "internal";
  }
}

Status DeadlineExceeded(const std::string& detail) {
  return Status::OutOfRange("deadline_exceeded: " + detail);
}

namespace {

constexpr char kTimeoutPrefix[] = "timeout:";
constexpr char kIdleTimeoutPrefix[] = "timeout: idle";
/// 2^53: the largest wire integer accepted where the field could hold more
/// (size_t and int64 fields, the uint64 seed), above which a JSON number (a
/// double) no longer holds every integer exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;
constexpr double kMaxInt = std::numeric_limits<int>::max();

Status IdleTimeout() {
  return Status::Internal(
      "timeout: idle connection hit the socket read timeout");
}

Status MidFrameTimeout(const char* what) {
  return Status::Internal(std::string("timeout: socket ") + what +
                          " timed out mid-frame");
}

/// Reads `value` as a whole number in [0, max]. Checked on the double,
/// before any cast: casting 2.5 truncates, a negative wraps an unsigned
/// field, and a value out of the target's range is undefined behaviour.
/// `name` is how the error names the field.
Status WholeNumber(const JsonValue& value, const std::string& name,
                   double max, double* out) {
  double d = value.AsDouble();
  if (!value.is_number() || !(d >= 0) || d != std::floor(d) || d > max) {
    return Status::InvalidArgument(
        name + " must be an integer in [0, " +
        std::to_string(static_cast<uint64_t>(max)) + "]");
  }
  *out = d;
  return Status::OK();
}

}  // namespace

bool IsTimeout(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().rfind(kTimeoutPrefix, 0) == 0;
}

bool IsIdleTimeout(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().rfind(kIdleTimeoutPrefix, 0) == 0;
}

JsonValue Request::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("op", JsonValue::String(OpName(op)));
  if (!tenant.empty()) json.Set("tenant", JsonValue::String(tenant));
  if (!dataset.empty()) json.Set("dataset", JsonValue::String(dataset));
  if (!csv_text.empty()) json.Set("csv", JsonValue::String(csv_text));
  if (!dc_text.empty()) json.Set("constraints", JsonValue::String(dc_text));
  if (cell_tid >= 0) {
    JsonValue cell = JsonValue::Object();
    cell.Set("tid", JsonValue::Number(static_cast<double>(cell_tid)));
    cell.Set("attr", JsonValue::String(cell_attr));
    cell.Set("value", JsonValue::String(cell_value));
    json.Set("cell", std::move(cell));
  }
  if (!rows.empty()) {
    JsonValue rows_json = JsonValue::Array();
    for (const auto& row : rows) {
      JsonValue row_json = JsonValue::Array();
      for (const auto& value : row) {
        row_json.Append(JsonValue::String(value));
      }
      rows_json.Append(std::move(row_json));
    }
    json.Set("rows", std::move(rows_json));
  }
  if (config_overrides.is_object() && config_overrides.size() > 0) {
    json.Set("config", config_overrides);
  }
  // Emitted only when set: a request built by a protocol-1 client that
  // predates deadlines re-serializes byte-identically.
  if (deadline_ms > 0) {
    json.Set("deadline_ms",
             JsonValue::Number(static_cast<double>(deadline_ms)));
  }
  if (attempt > 0) {
    json.Set("attempt", JsonValue::Number(static_cast<double>(attempt)));
  }
  return json;
}

Result<Request> Request::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request frame is not a JSON object");
  }
  Request req;
  const JsonValue* op = json.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request has no string \"op\" field");
  }
  HOLO_ASSIGN_OR_RETURN(parsed_op, ParseOp(op->AsString()));
  req.op = parsed_op;
  req.tenant = json.GetString("tenant");
  req.dataset = json.GetString("dataset");
  req.csv_text = json.GetString("csv");
  req.dc_text = json.GetString("constraints");
  if (const JsonValue* cell = json.Find("cell")) {
    if (!cell->is_object()) {
      return Status::InvalidArgument("\"cell\" must be an object");
    }
    const JsonValue* tid = cell->Find("tid");
    req.cell_attr = cell->GetString("attr");
    req.cell_value = cell->GetString("value");
    if (tid == nullptr || req.cell_attr.empty()) {
      return Status::InvalidArgument(
          "\"cell\" needs a non-negative tid and an attr");
    }
    double d = 0;
    HOLO_RETURN_NOT_OK(WholeNumber(*tid, "cell.tid", kMaxExactInteger, &d));
    req.cell_tid = static_cast<int64_t>(d);
  }
  if (const JsonValue* rows = json.Find("rows")) {
    if (!rows->is_array()) {
      return Status::InvalidArgument("\"rows\" must be an array of arrays");
    }
    for (const JsonValue& row : rows->items()) {
      if (!row.is_array()) {
        return Status::InvalidArgument("\"rows\" must be an array of arrays");
      }
      std::vector<std::string> values;
      for (const JsonValue& value : row.items()) {
        if (!value.is_string()) {
          return Status::InvalidArgument("row values must be strings");
        }
        values.push_back(value.AsString());
      }
      req.rows.push_back(std::move(values));
    }
  }
  if (const JsonValue* config = json.Find("config")) {
    if (!config->is_object()) {
      return Status::InvalidArgument("\"config\" must be an object");
    }
    req.config_overrides = *config;
  }
  if (const JsonValue* deadline = json.Find("deadline_ms")) {
    double d = 0;
    HOLO_RETURN_NOT_OK(
        WholeNumber(*deadline, "deadline_ms", kMaxExactInteger, &d));
    req.deadline_ms = static_cast<int64_t>(d);
  }
  if (const JsonValue* attempt = json.Find("attempt")) {
    double d = 0;
    HOLO_RETURN_NOT_OK(WholeNumber(*attempt, "attempt", kMaxInt, &d));
    req.attempt = static_cast<int>(d);
  }
  return req;
}

Status ApplyConfigOverrides(const JsonValue& overrides,
                            HoloCleanConfig* config) {
  if (!overrides.is_object()) {
    return Status::InvalidArgument("config overrides must be an object");
  }
  for (const auto& [key, value] : overrides.members()) {
    auto number = [&](double* out) -> Status {
      if (!value.is_number()) {
        return Status::InvalidArgument("config." + key + " must be a number");
      }
      *out = value.AsDouble();
      return Status::OK();
    };
    auto whole = [&](double max, double* out) -> Status {
      return WholeNumber(value, "config." + key, max, out);
    };
    auto count = [&](size_t* out) -> Status {
      double d = 0;
      HOLO_RETURN_NOT_OK(whole(kMaxExactInteger, &d));
      *out = static_cast<size_t>(d);
      return Status::OK();
    };
    auto integer = [&](int* out) -> Status {
      double d = 0;
      HOLO_RETURN_NOT_OK(whole(kMaxInt, &d));
      *out = static_cast<int>(d);
      return Status::OK();
    };
    auto boolean = [&](bool* out) -> Status {
      if (!value.is_bool()) {
        return Status::InvalidArgument("config." + key + " must be a bool");
      }
      *out = value.AsBool();
      return Status::OK();
    };
    if (key == "tau") {
      HOLO_RETURN_NOT_OK(number(&config->tau));
    } else if (key == "max_candidates") {
      HOLO_RETURN_NOT_OK(count(&config->max_candidates));
    } else if (key == "dc_factor_weight") {
      HOLO_RETURN_NOT_OK(number(&config->dc_factor_weight));
    } else if (key == "minimality_weight") {
      HOLO_RETURN_NOT_OK(number(&config->minimality_weight));
    } else if (key == "sim_threshold") {
      HOLO_RETURN_NOT_OK(number(&config->sim_threshold));
    } else if (key == "partitioning") {
      HOLO_RETURN_NOT_OK(boolean(&config->partitioning));
    } else if (key == "epochs") {
      HOLO_RETURN_NOT_OK(integer(&config->epochs));
    } else if (key == "learning_rate") {
      HOLO_RETURN_NOT_OK(number(&config->learning_rate));
    } else if (key == "lr_decay") {
      HOLO_RETURN_NOT_OK(number(&config->lr_decay));
    } else if (key == "l2") {
      HOLO_RETURN_NOT_OK(number(&config->l2));
    } else if (key == "max_training_cells") {
      HOLO_RETURN_NOT_OK(count(&config->max_training_cells));
    } else if (key == "gibbs_burn_in") {
      HOLO_RETURN_NOT_OK(integer(&config->gibbs_burn_in));
    } else if (key == "gibbs_samples") {
      HOLO_RETURN_NOT_OK(integer(&config->gibbs_samples));
    } else if (key == "seed") {
      double d = 0;
      HOLO_RETURN_NOT_OK(whole(kMaxExactInteger, &d));
      config->seed = static_cast<uint64_t>(d);
    } else {
      return Status::InvalidArgument("unknown config override \"" + key +
                                     "\"");
    }
  }
  return Status::OK();
}

JsonValue OkResponse() {
  JsonValue json = JsonValue::Object();
  json.Set("ok", JsonValue::Bool(true));
  json.Set("protocol", JsonValue::Number(kProtocolVersion));
  return json;
}

JsonValue ErrorResponse(const Status& status) {
  JsonValue json = JsonValue::Object();
  json.Set("ok", JsonValue::Bool(false));
  json.Set("protocol", JsonValue::Number(kProtocolVersion));
  json.Set("error", JsonValue::String(ErrorCodeFor(status)));
  json.Set("message", JsonValue::String(status.message()));
  return json;
}

namespace {

enum class IoEnd { kDone, kEof, kTimeout, kError };

/// Reads exactly `n` bytes, retrying EINTR and short reads. `*got` is
/// always the byte count actually transferred (what distinguishes an
/// idle timeout from a mid-frame one). kError leaves errno set.
IoEnd ReadFull(int fd, char* buf, size_t n, size_t* got) {
  *got = 0;
  size_t cap = n;  // Per-syscall byte cap (failpoint short-read drill).
  if (auto fire = HOLO_FAILPOINT_EVAL("serve.frame.read_slice")) {
    if (fire->action == Failpoints::Action::kSlice) cap = fire->slice_bytes;
  }
  while (*got < n) {
    if (HOLO_FAILPOINT_EVAL("serve.frame.read_eintr")) {
      // Pretend the read was signal-interrupted: a correct loop retries
      // without consuming or duplicating bytes.
      continue;
    }
    size_t want = n - *got;
    if (want > cap) want = cap;
    ssize_t r = ::read(fd, buf + *got, want);
    if (r == 0) return *got == n ? IoEnd::kDone : IoEnd::kEof;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoEnd::kTimeout;
      return IoEnd::kError;
    }
    *got += static_cast<size_t>(r);
  }
  return IoEnd::kDone;
}

/// Writes exactly `n` bytes, retrying EINTR and short writes.
IoEnd WriteFull(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  size_t cap = n;
  if (auto fire = HOLO_FAILPOINT_EVAL("serve.frame.write_slice")) {
    if (fire->action == Failpoints::Action::kSlice) cap = fire->slice_bytes;
  }
  while (sent < n) {
    if (HOLO_FAILPOINT_EVAL("serve.frame.write_eintr")) continue;
    size_t want = n - sent;
    if (want > cap) want = cap;
    ssize_t w = ::write(fd, buf + sent, want);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoEnd::kTimeout;
      return IoEnd::kError;
    }
    sent += static_cast<size_t>(w);
  }
  return IoEnd::kDone;
}

}  // namespace

void EncodeFrame(const JsonValue& json, std::string* out) {
  std::string payload = json.Dump();
  uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>((len >> 24) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>(len & 0xff)};
  out->append(prefix, 4);
  out->append(payload);
}

Result<JsonValue> ReadFrame(int fd) {
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("serve.frame.read"));
  char prefix[4];
  size_t got = 0;
  switch (ReadFull(fd, prefix, 4, &got)) {
    case IoEnd::kDone:
      break;
    case IoEnd::kEof:
      if (got == 0) return Status::NotFound("connection closed");
      return Status::ParseError("truncated frame length prefix");
    case IoEnd::kTimeout:
      // No bytes yet = an idle keepalive connection, not a stuck frame.
      if (got == 0) return IdleTimeout();
      return MidFrameTimeout("read");
    case IoEnd::kError:
      return Status::Internal(std::string("socket read: ") +
                              std::strerror(errno));
  }
  uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(prefix[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (len > kMaxFrameBytes) {
    return Status::ParseError("frame of " + std::to_string(len) +
                              " bytes exceeds the " +
                              std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  std::string payload(len, '\0');
  switch (ReadFull(fd, payload.data(), len, &got)) {
    case IoEnd::kDone:
      break;
    case IoEnd::kEof:
      return Status::ParseError("connection closed mid-frame");
    case IoEnd::kTimeout:
      return MidFrameTimeout("read");
    case IoEnd::kError:
      return Status::Internal(std::string("socket read: ") +
                              std::strerror(errno));
  }
  return JsonValue::Parse(payload);
}

Status WriteFrame(int fd, const JsonValue& json) {
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("serve.frame.write"));
  std::string frame;
  EncodeFrame(json, &frame);
  if (HOLO_FAILPOINT_EVAL("serve.frame.corrupt_write")) {
    // Flip a spread of payload bytes (the length prefix stays intact, so
    // the peer reads a full frame of garbage — the JSON-parse-failure
    // flavor of corruption, not the truncation flavor).
    for (size_t i = 4; i < frame.size(); i += 7) {
      frame[i] = static_cast<char>(frame[i] ^ 0x5a);
    }
  }
  if (HOLO_FAILPOINT_EVAL("serve.frame.truncate_write")) {
    // Send half the frame, then abandon it: the peer sees a mid-frame
    // hangup once we close.
    (void)WriteFull(fd, frame.data(), frame.size() / 2);
    return Status::Internal(
        "injected truncation after " + std::to_string(frame.size() / 2) +
        " of " + std::to_string(frame.size()) + " frame bytes");
  }
  switch (WriteFull(fd, frame.data(), frame.size())) {
    case IoEnd::kDone:
      return Status::OK();
    case IoEnd::kTimeout:
      return MidFrameTimeout("write");
    case IoEnd::kEof:  // WriteFull never returns kEof; keep -Werror happy.
    case IoEnd::kError:
      return Status::Internal(std::string("socket write: ") +
                              std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace holoclean
