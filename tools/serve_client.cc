// holoclean_serve_client — command-line client for holoclean_serve.
//
// Speaks the serve/protocol.h wire format over loopback and prints the
// JSON response to stdout. Exit status: 0 when the server answered
// ok=true, 1 when it rejected the request, 2 on usage/transport errors.
//
// Usage:
//   holoclean_serve_client --port N register <tenant> <dataset> <csv> <dcs>
//   holoclean_serve_client --port N drop     <tenant> <dataset>
//   holoclean_serve_client --port N list     [tenant]
//   holoclean_serve_client --port N clean    <tenant> <dataset> [k=v ...]
//   holoclean_serve_client --port N feedback <tenant> <dataset> <tid> <attr>
//                                            <value>
//   holoclean_serve_client --port N append   <tenant> <dataset> <csv>
//   holoclean_serve_client --port N status   [tenant dataset]
//
// `clean` accepts config overrides as key=value pairs (tau=0.7
// epochs=10 ...). `status` with no arguments asks
// for the global server view (queue depth, error counters). `append`
// streams the data rows of a headered CSV file into the tenant's working
// copy (append_rows op) and prints the incremental re-clean's report.
//
// Shared flags (before the op):
//   --deadline-ms N    request deadline forwarded to the server queue
//   --timeout-ms N     socket connect/read/write timeout
//   --retries N        retry overloaded/draining/transport rejections with
//                      jittered exponential backoff (N attempts total)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "holoclean/serve/client.h"
#include "holoclean/util/csv.h"

namespace {

using holoclean::JsonValue;
using holoclean::Result;
using holoclean::Status;
namespace serve = holoclean::serve;

int Usage() {
  std::fprintf(
      stderr,
      "usage: holoclean_serve_client --port N [--deadline-ms N]\n"
      "                              [--timeout-ms N] [--retries N]\n"
      "                              <op> [args...]\n"
      "  register <tenant> <dataset> <csv-file> <dc-file>\n"
      "  drop     <tenant> <dataset>\n"
      "  list     [tenant]\n"
      "  clean    <tenant> <dataset> [key=value ...]\n"
      "  feedback <tenant> <dataset> <tid> <attr> <value>\n"
      "  append   <tenant> <dataset> <csv-file>  (header row + new rows)\n"
      "  status   [tenant dataset]   (no args: global server counters)\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read error on " + path);
  return text;
}

/// Parses a "key=value" override into a JSON scalar (bool or number).
Status AddOverride(const std::string& pair, JsonValue* overrides) {
  size_t eq = pair.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("override \"" + pair +
                                   "\" is not key=value");
  }
  std::string key = pair.substr(0, eq);
  std::string value = pair.substr(eq + 1);
  if (value == "true" || value == "false") {
    overrides->Set(key, JsonValue::Bool(value == "true"));
    return Status::OK();
  }
  char* end = nullptr;
  double number = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("override \"" + pair +
                                   "\" needs a bool or numeric value");
  }
  overrides->Set(key, JsonValue::Number(number));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int deadline_ms = 0;
  int timeout_ms = 0;
  int retries = 1;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (port <= 0 || args.empty() || retries < 1) return Usage();

  serve::Request req;
  const std::string& op = args[0];
  if (op == "register" && args.size() == 5) {
    req.op = serve::Op::kRegisterDataset;
    req.tenant = args[1];
    req.dataset = args[2];
    auto csv = ReadFile(args[3]);
    auto dcs = ReadFile(args[4]);
    if (!csv.ok() || !dcs.ok()) {
      std::fprintf(stderr, "%s\n",
                   (!csv.ok() ? csv.status() : dcs.status()).ToString().c_str());
      return 2;
    }
    req.csv_text = std::move(csv).value();
    req.dc_text = std::move(dcs).value();
  } else if (op == "drop" && args.size() == 3) {
    req.op = serve::Op::kDropDataset;
    req.tenant = args[1];
    req.dataset = args[2];
  } else if (op == "list" && args.size() <= 2) {
    req.op = serve::Op::kListDatasets;
    if (args.size() == 2) req.tenant = args[1];
  } else if (op == "clean" && args.size() >= 3) {
    req.op = serve::Op::kClean;
    req.tenant = args[1];
    req.dataset = args[2];
    for (size_t i = 3; i < args.size(); ++i) {
      Status st = AddOverride(args[i], &req.config_overrides);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
    }
  } else if (op == "feedback" && args.size() == 6) {
    req.op = serve::Op::kFeedback;
    req.tenant = args[1];
    req.dataset = args[2];
    req.cell_tid = std::atoll(args[3].c_str());
    req.cell_attr = args[4];
    req.cell_value = args[5];
  } else if (op == "append" && args.size() == 4) {
    req.op = serve::Op::kAppendRows;
    req.tenant = args[1];
    req.dataset = args[2];
    auto doc = holoclean::ReadCsvFile(args[3]);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 2;
    }
    req.rows = std::move(doc).value().rows;
    if (req.rows.empty()) {
      std::fprintf(stderr, "append: %s has no data rows\n", args[3].c_str());
      return 2;
    }
  } else if (op == "status" && (args.size() == 1 || args.size() == 3)) {
    // With no target the server answers with its global counters only.
    req.op = serve::Op::kExplainStatus;
    if (args.size() == 3) {
      req.tenant = args[1];
      req.dataset = args[2];
    }
  } else {
    return Usage();
  }
  req.deadline_ms = deadline_ms;

  auto client = serve::Client::Connect(port, timeout_ms);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 2;
  }

  JsonValue response;
  if (retries > 1) {
    serve::RetryOptions retry;
    retry.max_attempts = retries;
    if (deadline_ms > 0) retry.overall_deadline_ms = deadline_ms;
    auto result = client.value().CallWithRetry(port, req, retry);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      // Retries exhausted on a server rejection (overloaded/draining) is
      // still a rejection, not a transport failure.
      return result.status().code() == holoclean::StatusCode::kOutOfRange ? 1
                                                                          : 2;
    }
    response = result.value().response;
  } else {
    auto direct = client.value().Call(req);
    if (!direct.ok()) {
      std::fprintf(stderr, "%s\n", direct.status().ToString().c_str());
      return 2;
    }
    response = direct.value();
  }
  std::printf("%s\n", response.Dump().c_str());
  return response.GetBool("ok") ? 0 : 1;
}
