// Tests for the serving tier: wire framing, request parsing and config
// overrides, the concurrent dataset registry, per-tenant admission
// control, the in-process and TCP request paths of CleaningServer, and
// the drain -> restart round trip (warm state survives a restart with
// bit-identical repairs).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "holoclean/data/food.h"
#include "holoclean/serve/admission.h"
#include "holoclean/serve/client.h"
#include "holoclean/serve/protocol.h"
#include "holoclean/serve/queue.h"
#include "holoclean/serve/registry.h"
#include "holoclean/serve/server.h"
#include "holoclean/util/csv.h"
#include "holoclean/util/failpoint.h"

namespace holoclean {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::CleaningServer;
using serve::Client;
using serve::DatasetRegistry;
using serve::Op;
using serve::Request;
using serve::ServerOptions;

/// Raw registration payloads for a small generated Food instance.
struct Payload {
  std::string csv;
  std::string dcs;
};

Payload MakePayload(size_t i, size_t rows = 120) {
  FoodOptions options;
  options.num_rows = rows;
  options.error_rate = 0.05 + 0.01 * static_cast<double>(i);
  options.seed = 9200 + i;
  GeneratedData data = MakeFood(options);
  Payload payload;
  payload.csv = WriteCsv(data.dataset.dirty().ToCsv());
  for (const DenialConstraint& dc : data.dcs) {
    payload.dcs += dc.ToString(data.dataset.dirty().schema()) + "\n";
  }
  return payload;
}

JsonValue RegisterFrame(const std::string& tenant, const std::string& dataset,
                        const Payload& payload) {
  Request req;
  req.op = Op::kRegisterDataset;
  req.tenant = tenant;
  req.dataset = dataset;
  req.csv_text = payload.csv;
  req.dc_text = payload.dcs;
  return req.ToJson();
}

JsonValue CleanFrame(const std::string& tenant, const std::string& dataset) {
  Request req;
  req.op = Op::kClean;
  req.tenant = tenant;
  req.dataset = dataset;
  return req.ToJson();
}

/// A fast pipeline config for serving tests.
HoloCleanConfig FastConfig() {
  HoloCleanConfig config;
  config.epochs = 5;
  config.gibbs_burn_in = 3;
  config.gibbs_samples = 10;
  return config;
}

ServerOptions FastServerOptions() {
  ServerOptions options;
  options.default_config = FastConfig();
  options.engine_threads = 2;
  return options;
}

/// A fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "holoclean_serve_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string RepairsDump(const JsonValue& response) {
  const JsonValue* report = response.Find("report");
  EXPECT_NE(report, nullptr);
  const JsonValue* repairs =
      report != nullptr ? report->Find("repairs") : nullptr;
  EXPECT_NE(repairs, nullptr);
  return repairs != nullptr ? repairs->Dump() : "";
}

// --- Protocol ----------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::String("list_datasets"));
  obj.Set("n", JsonValue::Number(42));
  ASSERT_TRUE(serve::WriteFrame(fds[1], obj).ok());
  ::close(fds[1]);

  Result<JsonValue> read = serve::ReadFrame(fds[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().Dump(), obj.Dump());

  // The pipe is now at EOF: a clean close reads as kNotFound.
  Result<JsonValue> eof = serve::ReadFrame(fds[0]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(ServeProtocol, HostileAndTruncatedFramesAreRejected) {
  {
    // Length prefix past the frame bound must be refused pre-allocation.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(fds[1], huge, 4), 4);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
  {
    // Connection dying mid-prefix.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "\x00\x00", 2), 2);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
  {
    // Connection dying mid-payload.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    unsigned char prefix[4] = {0, 0, 0, 10};
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ASSERT_EQ(::write(fds[1], "{\"a\"", 4), 4);
    ::close(fds[1]);
    Result<JsonValue> r = serve::ReadFrame(fds[0]);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    ::close(fds[0]);
  }
}

TEST(ServeProtocol, RequestRoundTripsThroughJson) {
  Request req;
  req.op = Op::kFeedback;
  req.tenant = "acme";
  req.dataset = "food";
  req.cell_tid = 7;
  req.cell_attr = "City";
  req.cell_value = "Chicago";
  req.config_overrides.Set("epochs", JsonValue::Number(3));

  Result<Request> parsed = Request::FromJson(req.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().op, Op::kFeedback);
  EXPECT_EQ(parsed.value().tenant, "acme");
  EXPECT_EQ(parsed.value().dataset, "food");
  EXPECT_EQ(parsed.value().cell_tid, 7);
  EXPECT_EQ(parsed.value().cell_attr, "City");
  EXPECT_EQ(parsed.value().cell_value, "Chicago");
  EXPECT_EQ(parsed.value().config_overrides.GetInt("epochs"), 3);
}

TEST(ServeProtocol, MalformedRequestsAreRejected) {
  EXPECT_FALSE(Request::FromJson(JsonValue::Array()).ok());
  EXPECT_FALSE(Request::FromJson(JsonValue::Object()).ok());  // No op.

  JsonValue bad_op = JsonValue::Object();
  bad_op.Set("op", JsonValue::String("explode"));
  EXPECT_FALSE(Request::FromJson(bad_op).ok());

  JsonValue bad_cell = JsonValue::Object();
  bad_cell.Set("op", JsonValue::String("feedback"));
  bad_cell.Set("cell", JsonValue::String("not an object"));
  EXPECT_FALSE(Request::FromJson(bad_cell).ok());
}

TEST(ServeProtocol, ConfigOverridesApplyAndRejectUnknownKeys) {
  HoloCleanConfig config;
  JsonValue overrides = JsonValue::Object();
  overrides.Set("tau", JsonValue::Number(0.7));
  overrides.Set("epochs", JsonValue::Number(3));
  overrides.Set("partitioning", JsonValue::Bool(true));
  overrides.Set("seed", JsonValue::Number(99));
  ASSERT_TRUE(serve::ApplyConfigOverrides(overrides, &config).ok());
  EXPECT_DOUBLE_EQ(config.tau, 0.7);
  EXPECT_EQ(config.epochs, 3);
  EXPECT_TRUE(config.partitioning);
  EXPECT_EQ(config.seed, 99u);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(config.gibbs_samples, HoloCleanConfig().gibbs_samples);

  JsonValue unknown = JsonValue::Object();
  unknown.Set("tao", JsonValue::Number(0.7));  // Typo must not pass silently.
  Status st = serve::ApplyConfigOverrides(unknown, &config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  JsonValue wrong_type = JsonValue::Object();
  wrong_type.Set("epochs", JsonValue::String("three"));
  EXPECT_FALSE(serve::ApplyConfigOverrides(wrong_type, &config).ok());

  // The removed implementation switches are unknown keys now; no result
  // ever depended on them.
  for (const char* removed : {"compiled_kernel", "columnar"}) {
    JsonValue old_knob = JsonValue::Object();
    old_knob.Set(removed, JsonValue::Bool(true));
    EXPECT_EQ(serve::ApplyConfigOverrides(old_knob, &config).code(),
              StatusCode::kInvalidArgument)
        << removed;
  }
}

TEST(ServeProtocol, IntegerConfigOverridesRejectWhatTheyCannotStore) {
  // Each key's field accepts whole numbers in [0, max]; anything else used
  // to be cast (2.5 -> 2, 3e9 -> -1294967296, 1e300 undefined).
  struct Key {
    const char* name;
    double max;  // INT_MAX for int fields, 2^53 for size_t ones.
    std::function<double(const HoloCleanConfig&)> read;
  };
  const double int_max = std::numeric_limits<int>::max();
  const double exact_max = 9007199254740992.0;
  const std::vector<Key> keys = {
      {"epochs", int_max, [](const auto& c) { return c.epochs; }},
      {"gibbs_burn_in", int_max, [](const auto& c) { return c.gibbs_burn_in; }},
      {"gibbs_samples", int_max, [](const auto& c) { return c.gibbs_samples; }},
      {"max_candidates", exact_max,
       [](const auto& c) { return static_cast<double>(c.max_candidates); }},
      {"max_training_cells", exact_max,
       [](const auto& c) { return static_cast<double>(c.max_training_cells); }},
  };
  for (const Key& key : keys) {
    for (double value : {-3.0, 2.5, 3e9, 1e300, key.max + 2.0}) {
      HoloCleanConfig config;
      JsonValue overrides = JsonValue::Object();
      overrides.Set(key.name, JsonValue::Number(value));
      Status st = serve::ApplyConfigOverrides(overrides, &config);
      if (value <= key.max && value >= 0 && value == std::floor(value)) {
        EXPECT_TRUE(st.ok()) << key.name << " = " << value << ": " << st;
        EXPECT_EQ(key.read(config), value) << key.name;
      } else {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << key.name << " = " << value;
        EXPECT_EQ(key.read(config), key.read(HoloCleanConfig())) << key.name;
      }
    }
    for (double value : {0.0, key.max}) {
      HoloCleanConfig config;
      JsonValue overrides = JsonValue::Object();
      overrides.Set(key.name, JsonValue::Number(value));
      EXPECT_TRUE(serve::ApplyConfigOverrides(overrides, &config).ok())
          << key.name << " = " << value;
      EXPECT_EQ(key.read(config), value) << key.name;
    }
  }
}

TEST(ServeProtocol, ErrorCodesDistinguishOverloadFromDraining) {
  EXPECT_EQ(serve::ErrorCodeFor(Status::OutOfRange("overloaded: busy")),
            "overloaded");
  EXPECT_EQ(serve::ErrorCodeFor(Status::OutOfRange("draining: bye")),
            "draining");
  EXPECT_EQ(serve::ErrorCodeFor(Status::NotFound("x")), "not_found");
  EXPECT_EQ(serve::ErrorCodeFor(Status::AlreadyExists("x")), "already_exists");
  EXPECT_EQ(serve::ErrorCodeFor(Status::Internal("x")), "internal");
}

// --- Registry ----------------------------------------------------------------

TEST(ServeRegistry, RegisterFindDropLifecycle) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0);

  ASSERT_TRUE(registry.Register("acme", "food", payload.csv, payload.dcs).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Register("acme", "food", payload.csv, payload.dcs).code(),
            StatusCode::kAlreadyExists);

  auto found = registry.Find("acme", "food");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->base->num_rows(), 120u);
  EXPECT_FALSE(found.value()->dcs->empty());

  // Same dataset name under another tenant is a distinct entry.
  ASSERT_TRUE(
      registry.Register("globex", "food", payload.csv, payload.dcs).ok());
  EXPECT_EQ(registry.size(), 2u);

  ASSERT_TRUE(registry.Drop("acme", "food").ok());
  EXPECT_EQ(registry.Drop("acme", "food").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Find("acme", "food").status().code(),
            StatusCode::kNotFound);
  // The handed-out entry stays alive for holders.
  EXPECT_EQ(found.value()->base->num_rows(), 120u);
}

TEST(ServeRegistry, RejectsBadNamesAndPayloads) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0);
  EXPECT_FALSE(registry.Register("", "food", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(
      registry.Register("a/b", "food", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(
      registry.Register("acme", "fo od", payload.csv, payload.dcs).ok());
  EXPECT_FALSE(registry.Register("acme", "food", "", payload.dcs).ok());
  EXPECT_FALSE(registry.Register("acme", "food", payload.csv, "").ok());
  EXPECT_FALSE(
      registry.Register("acme", "food", "not,a\nvalid", payload.dcs).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServeRegistry, ConcurrentRegisterDropRacesStayConsistent) {
  DatasetRegistry registry;
  Payload payload = MakePayload(0, 40);
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;

  // Each thread hammers its own name while everyone also races for one
  // contended name; listers iterate concurrently.
  std::atomic<int> contended_wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "ds" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        ASSERT_TRUE(
            registry.Register("acme", mine, payload.csv, payload.dcs).ok());
        auto found = registry.Find("acme", mine);
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(found.value()->base->num_rows(), 40u);
        if (registry.Register("acme", "contended", payload.csv, payload.dcs)
                .ok()) {
          contended_wins.fetch_add(1);
          EXPECT_TRUE(registry.Drop("acme", "contended").ok());
        }
        for (const auto& entry : registry.List()) {
          EXPECT_FALSE(entry->dataset.empty());
        }
        ASSERT_TRUE(registry.Drop("acme", mine).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_GT(contended_wins.load(), 0);
}

// --- Admission ---------------------------------------------------------------

TEST(ServeAdmission, PerTenantQuotaIsolatesTenants) {
  AdmissionOptions options;
  options.per_tenant_inflight = 2;
  options.global_inflight = 8;
  AdmissionController admission(options);

  auto a1 = admission.Admit("acme");
  auto a2 = admission.Admit("acme");
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());

  // Tenant quota exhausted: acme bounces, globex keeps full service.
  auto a3 = admission.Admit("acme");
  EXPECT_EQ(a3.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(serve::ErrorCodeFor(a3.status()), "overloaded");
  auto b1 = admission.Admit("globex");
  EXPECT_TRUE(b1.ok());

  // Releasing a slot re-admits the tenant (RAII ticket).
  a1.value().Release();
  EXPECT_TRUE(admission.Admit("acme").ok());
  EXPECT_EQ(admission.inflight("globex"), 1u);
}

TEST(ServeAdmission, GlobalBoundShedsEveryone) {
  AdmissionOptions options;
  options.per_tenant_inflight = 8;
  options.global_inflight = 3;
  AdmissionController admission(options);

  std::vector<AdmissionController::Ticket> held;
  for (int i = 0; i < 3; ++i) {
    auto t = admission.Admit("tenant" + std::to_string(i));
    ASSERT_TRUE(t.ok());
    held.push_back(std::move(t).value());
  }
  EXPECT_EQ(admission.total_inflight(), 3u);
  EXPECT_EQ(admission.Admit("anyone").status().code(),
            StatusCode::kOutOfRange);
  held.clear();  // RAII release.
  EXPECT_EQ(admission.total_inflight(), 0u);
  EXPECT_TRUE(admission.Admit("anyone").ok());
}

// --- Server (in-process) -----------------------------------------------------

TEST(ServeServer, LifecycleAndWarmRepeatIsBitIdentical) {
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);

  JsonValue reg = server.Handle(RegisterFrame("acme", "food", payload));
  ASSERT_TRUE(reg.GetBool("ok")) << reg.Dump();
  EXPECT_EQ(reg.GetInt("rows"), 120);

  // Registering the same name again fails cleanly.
  JsonValue dup = server.Handle(RegisterFrame("acme", "food", payload));
  EXPECT_FALSE(dup.GetBool("ok"));
  EXPECT_EQ(dup.GetString("error"), "already_exists");

  JsonValue cold = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(cold.GetBool("ok")) << cold.Dump();
  EXPECT_FALSE(cold.GetBool("warm"));
  ASSERT_GT(RepairsDump(cold).size(), 2u);

  JsonValue warm = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(warm.GetBool("ok")) << warm.Dump();
  EXPECT_TRUE(warm.GetBool("warm"));
  EXPECT_EQ(RepairsDump(warm), RepairsDump(cold));

  // Feedback pins a cell and re-cleans incrementally.
  Request feedback;
  feedback.op = Op::kFeedback;
  feedback.tenant = "acme";
  feedback.dataset = "food";
  feedback.cell_tid = 0;
  feedback.cell_attr = "City";
  feedback.cell_value = "Chicago";
  JsonValue fb = server.Handle(feedback.ToJson());
  ASSERT_TRUE(fb.GetBool("ok")) << fb.Dump();

  Request status;
  status.op = Op::kExplainStatus;
  status.tenant = "acme";
  status.dataset = "food";
  JsonValue st = server.Handle(status.ToJson());
  ASSERT_TRUE(st.GetBool("ok"));
  EXPECT_TRUE(st.GetBool("warm"));
  EXPECT_TRUE(st.GetBool("has_run"));

  Request drop;
  drop.op = Op::kDropDataset;
  drop.tenant = "acme";
  drop.dataset = "food";
  ASSERT_TRUE(server.Handle(drop.ToJson()).GetBool("ok"));
  JsonValue gone = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(gone.GetBool("ok"));
  EXPECT_EQ(gone.GetString("error"), "not_found");
}

TEST(ServeServer, TenantsAreIsolated) {
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("globex", "food", payload)).GetBool("ok"));

  // Both tenants clean "their" food dataset; identical registration bytes
  // mean identical repairs, but through fully separate working state.
  JsonValue a = server.Handle(CleanFrame("acme", "food"));
  JsonValue b = server.Handle(CleanFrame("globex", "food"));
  ASSERT_TRUE(a.GetBool("ok"));
  ASSERT_TRUE(b.GetBool("ok"));
  EXPECT_EQ(RepairsDump(a), RepairsDump(b));

  // Feedback by acme must not leak into globex's copy.
  Request feedback;
  feedback.op = Op::kFeedback;
  feedback.tenant = "acme";
  feedback.dataset = "food";
  feedback.cell_tid = 1;
  feedback.cell_attr = "City";
  feedback.cell_value = "Springfield";
  ASSERT_TRUE(server.Handle(feedback.ToJson()).GetBool("ok"));
  JsonValue b2 = server.Handle(CleanFrame("globex", "food"));
  ASSERT_TRUE(b2.GetBool("ok"));
  EXPECT_EQ(RepairsDump(b2), RepairsDump(b));
}

TEST(ServeServer, OverloadedTenantDoesNotPoisonSiblings) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  // Reject-only admission: this test pins the immediate-`overloaded`
  // contract that queue.max_depth = 0 preserves (a queued server would
  // park the request instead — covered by the queue tests).
  options.queue.max_depth = 0;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("globex", "food", payload)).GetBool("ok"));

  // Saturate acme's quota from the outside, as a stuck in-flight request
  // would, then watch its next request bounce while globex sails through.
  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  JsonValue shed = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(shed.GetBool("ok"));
  EXPECT_EQ(shed.GetString("error"), "overloaded");

  JsonValue fine = server.Handle(CleanFrame("globex", "food"));
  EXPECT_TRUE(fine.GetBool("ok")) << fine.Dump();

  held.value().Release();
  JsonValue recovered = server.Handle(CleanFrame("acme", "food"));
  EXPECT_TRUE(recovered.GetBool("ok")) << recovered.Dump();
}

TEST(ServeServer, DrainRejectsNewWorkAsDraining) {
  CleaningServer server(FastServerOptions());  // No state dir.
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(server.Drain().ok());

  JsonValue shed = server.Handle(CleanFrame("acme", "food"));
  EXPECT_FALSE(shed.GetBool("ok"));
  EXPECT_EQ(shed.GetString("error"), "draining");
  JsonValue reg = server.Handle(RegisterFrame("acme", "more", payload));
  EXPECT_FALSE(reg.GetBool("ok"));
  EXPECT_EQ(reg.GetString("error"), "draining");
}

/// Rewrites a drained manifest so every session config carries the
/// compiled_kernel and columnar keys where older builds wrote them (around
/// dc_table_cap).
void AddRemovedConfigKeys(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  auto manifest = JsonValue::Parse(text);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  JsonValue rewritten = JsonValue::Object();
  size_t configs = 0;
  for (const auto& [key, value] : manifest.value().members()) {
    if (key != "sessions") {
      rewritten.Set(key, value);
      continue;
    }
    JsonValue sessions = JsonValue::Array();
    for (const JsonValue& session : value.items()) {
      JsonValue s = JsonValue::Object();
      for (const auto& [skey, svalue] : session.members()) {
        if (skey != "config") {
          s.Set(skey, svalue);
          continue;
        }
        JsonValue config = JsonValue::Object();
        for (const auto& [ckey, cvalue] : svalue.members()) {
          if (ckey == "dc_table_cap") {
            config.Set("compiled_kernel", JsonValue::Bool(true));
          }
          config.Set(ckey, cvalue);
          if (ckey == "dc_table_cap") {
            config.Set("columnar", JsonValue::Bool(true));
          }
        }
        ASSERT_NE(config.Find("columnar"), nullptr);
        s.Set(skey, std::move(config));
        ++configs;
      }
      sessions.Append(std::move(s));
    }
    rewritten.Set(key, std::move(sessions));
  }
  ASSERT_GT(configs, 0u);
  std::ofstream out(path, std::ios::trunc);
  out << rewritten.Dump() << "\n";
}

TEST(ServeServer, DrainThenRestartRestoresWarmStateBitIdentically) {
  ServerOptions options = FastServerOptions();
  options.state_directory = FreshDir("drain");
  std::remove((options.state_directory + "/manifest.json").c_str());
  Payload payload = MakePayload(0);

  std::string warm_repairs;
  {
    CleaningServer first(options);
    ASSERT_TRUE(
        first.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
    JsonValue cold = first.Handle(CleanFrame("acme", "food"));
    ASSERT_TRUE(cold.GetBool("ok")) << cold.Dump();
    JsonValue warm = first.Handle(CleanFrame("acme", "food"));
    ASSERT_TRUE(warm.GetBool("ok"));
    ASSERT_TRUE(warm.GetBool("warm"));
    warm_repairs = RepairsDump(warm);
    ASSERT_TRUE(first.Drain().ok());
  }
  // Manifests drained by older builds carry the since-removed
  // compiled_kernel and columnar knobs in each session config; they must
  // keep restoring.
  ASSERT_NO_FATAL_FAILURE(
      AddRemovedConfigKeys(options.state_directory + "/manifest.json"));

  CleaningServer second(options);
  ASSERT_TRUE(second.RestoreState().ok());

  // The catalog and the parked session both came back.
  Request status;
  status.op = Op::kExplainStatus;
  status.tenant = "acme";
  status.dataset = "food";
  JsonValue st = second.Handle(status.ToJson());
  ASSERT_TRUE(st.GetBool("ok")) << st.Dump();
  EXPECT_TRUE(st.GetBool("warm"));
  EXPECT_TRUE(st.GetBool("has_run"));

  JsonValue resumed = second.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(resumed.GetBool("ok")) << resumed.Dump();
  EXPECT_TRUE(resumed.GetBool("warm"));
  EXPECT_EQ(RepairsDump(resumed), warm_repairs);
}

TEST(ServeServer, LruEvictionSpillsAndRestoresThroughTheWire) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("spill");
  CleaningServer server(options);
  Payload payload_a = MakePayload(0, 80);
  Payload payload_b = MakePayload(1, 80);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload_a)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload_b)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok"));
  // Cleaning b evicts a's parked session into a spill snapshot.
  ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  EXPECT_TRUE(server.engine().HasSpilledSession("acme/a"));

  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok"));
  EXPECT_FALSE(again_a.GetBool("warm"));
  EXPECT_TRUE(again_a.GetBool("restored_from_spill"));
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

// --- Server (TCP) ------------------------------------------------------------

TEST(ServeServer, TcpRoundTripMatchesInProcessDispatch) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  Payload payload = MakePayload(0);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  Request reg;
  reg.op = Op::kRegisterDataset;
  reg.tenant = "acme";
  reg.dataset = "food";
  reg.csv_text = payload.csv;
  reg.dc_text = payload.dcs;
  auto reg_resp = client.value().Call(reg);
  ASSERT_TRUE(reg_resp.ok()) << reg_resp.status();
  EXPECT_TRUE(reg_resp.value().GetBool("ok")) << reg_resp.value().Dump();

  Request clean;
  clean.op = Op::kClean;
  clean.tenant = "acme";
  clean.dataset = "food";
  auto tcp_clean = client.value().Call(clean);
  ASSERT_TRUE(tcp_clean.ok()) << tcp_clean.status();
  ASSERT_TRUE(tcp_clean.value().GetBool("ok")) << tcp_clean.value().Dump();

  // The socket path and Handle() dispatch identically: the warm repeat
  // through Handle() returns the same repairs the TCP clean produced.
  JsonValue warm = server.Handle(CleanFrame("acme", "food"));
  ASSERT_TRUE(warm.GetBool("ok"));
  EXPECT_EQ(RepairsDump(warm), RepairsDump(tcp_clean.value()));

  // An unknown op over the wire gets a clean protocol error, and the
  // connection keeps serving afterwards.
  JsonValue bogus = JsonValue::Object();
  bogus.Set("op", JsonValue::String("explode"));
  auto bad = client.value().CallRaw(bogus);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_FALSE(bad.value().GetBool("ok"));
  EXPECT_EQ(bad.value().GetString("error"), "invalid_argument");

  Request list;
  list.op = Op::kListDatasets;
  auto listed = client.value().Call(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().Find("datasets")->size(), 1u);

  client.value().Close();
  server.Stop();
}

TEST(ServeServer, ConcurrentTcpClientsOverDistinctSlots) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 4;
  options.admission.global_inflight = 8;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0, 80);
  for (const char* tenant : {"t0", "t1", "t2", "t3"}) {
    ASSERT_TRUE(
        server.Handle(RegisterFrame(tenant, "food", payload)).GetBool("ok"));
  }

  std::vector<std::string> repairs(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      Request clean;
      clean.op = Op::kClean;
      clean.tenant = "t" + std::to_string(t);
      clean.dataset = "food";
      auto resp = client.value().Call(clean);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp.value().GetBool("ok")) << resp.value().Dump();
      repairs[static_cast<size_t>(t)] = RepairsDump(resp.value());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  // Same registration bytes + same config => all four tenants, cleaned
  // concurrently over the shared pool, repair identically.
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(repairs[static_cast<size_t>(t)], repairs[0]);
  }
}

// --- Robustness: deadlines, queueing, fault injection ------------------------

TEST(ServeProtocol, DeadlineAndAttemptFieldsRoundTrip) {
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 2500;
  req.attempt = 2;
  auto parsed = Request::FromJson(req.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().deadline_ms, 2500);
  EXPECT_EQ(parsed.value().attempt, 2);

  // Negative deadlines are a client bug, not a default.
  JsonValue bad = CleanFrame("acme", "food");
  bad.Set("deadline_ms", JsonValue::Number(-5));
  EXPECT_FALSE(Request::FromJson(bad).ok());
}

TEST(ServeProtocol, WireIntegersRejectWhatTheyCannotStore) {
  // deadline_ms, cell.tid and the seed knob take whole numbers in
  // [0, 2^53], attempt in [0, INT_MAX]. They used to go through an
  // unchecked cast: 2.5 -> 2, 3e9 -> -1294967296, 1e300 undefined.
  struct Field {
    const char* name;
    double max;
    /// Parses `value` in this field; returns the value stored.
    std::function<Result<double>(double)> parse;
  };
  auto in_clean = [](const char* key, double value) {
    JsonValue frame = CleanFrame("acme", "food");
    frame.Set(key, JsonValue::Number(value));
    return Request::FromJson(frame);
  };
  const std::vector<Field> fields = {
      {"deadline_ms", 9007199254740992.0,
       [&](double value) -> Result<double> {
         HOLO_ASSIGN_OR_RETURN(req, in_clean("deadline_ms", value));
         return static_cast<double>(req.deadline_ms);
       }},
      {"attempt", static_cast<double>(std::numeric_limits<int>::max()),
       [&](double value) -> Result<double> {
         HOLO_ASSIGN_OR_RETURN(req, in_clean("attempt", value));
         return static_cast<double>(req.attempt);
       }},
      {"cell.tid", 9007199254740992.0,
       [](double value) -> Result<double> {
         Request feedback;
         feedback.op = Op::kFeedback;
         feedback.tenant = "acme";
         feedback.dataset = "food";
         feedback.cell_tid = 0;
         feedback.cell_attr = "City";
         feedback.cell_value = "Chicago";
         JsonValue frame = feedback.ToJson();
         JsonValue cell = *frame.Find("cell");
         cell.Set("tid", JsonValue::Number(value));
         frame.Set("cell", cell);
         HOLO_ASSIGN_OR_RETURN(req, Request::FromJson(frame));
         return static_cast<double>(req.cell_tid);
       }},
      {"config.seed", 9007199254740992.0,
       [](double value) -> Result<double> {
         HoloCleanConfig config;
         JsonValue overrides = JsonValue::Object();
         overrides.Set("seed", JsonValue::Number(value));
         HOLO_RETURN_NOT_OK(serve::ApplyConfigOverrides(overrides, &config));
         return static_cast<double>(config.seed);
       }},
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Field& field : fields) {
    for (double value : {-1.0, 2.5, -1e300, 1e300, 3e9, field.max + 2.0,
                         nan, inf, 0.0, 7.0, field.max}) {
      Result<double> stored = field.parse(value);
      if (value >= 0 && value == std::floor(value) && value <= field.max) {
        ASSERT_TRUE(stored.ok()) << field.name << " = " << value << ": "
                                 << stored.status();
        EXPECT_EQ(stored.value(), value) << field.name;
      } else {
        EXPECT_EQ(stored.status().code(), StatusCode::kInvalidArgument)
            << field.name << " = " << value;
      }
    }
  }
}

TEST(ServeProtocol, LegacyRequestsWithoutDeadlineRoundTripUnchanged) {
  // A protocol-1 frame that predates deadline_ms/attempt must parse to
  // the defaults and re-serialize byte-identically — old clients see no
  // difference.
  JsonValue legacy = CleanFrame("acme", "food");
  auto parsed = Request::FromJson(legacy);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().deadline_ms, 0);
  EXPECT_EQ(parsed.value().attempt, 0);
  EXPECT_EQ(parsed.value().ToJson().Dump(), legacy.Dump());
}

TEST(ServeProtocol, EintrAndShortReadsStillDeliverFramesIntact) {
  // Regression for the frame I/O audit: injected signal interruptions
  // plus a 3-byte syscall cap (forcing the short-read path on every
  // transfer) must not lose, duplicate, or reorder a single byte.
  ScopedFailpoints guard(
      "serve.frame.read_eintr=on:2/error;serve.frame.read_slice="
      "always/slice:3;serve.frame.write_eintr=on:1/error;"
      "serve.frame.write_slice=always/slice:3");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::String("list_datasets"));
  obj.Set("blob", JsonValue::String(std::string(300, 'x') + "end"));
  ASSERT_TRUE(serve::WriteFrame(fds[1], obj).ok());
  ::close(fds[1]);
  auto read = serve::ReadFrame(fds[0]);
  ::close(fds[0]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().Dump(), obj.Dump());
}

TEST(ServeServer, QueueParksOverloadedRequestUntilSlotFrees) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  // With the quota saturated the request parks instead of bouncing; it
  // completes once the held ticket releases.
  JsonValue queued_resp;
  std::thread waiter([&] {
    Request req;
    req.op = Op::kClean;
    req.tenant = "acme";
    req.dataset = "food";
    req.deadline_ms = 10000;
    queued_resp = server.Handle(req.ToJson());
  });
  while (server.queue().stats().depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Raw tickets bypass QueuedTicket, so hand the freed slot to the queue
  // the way the server's release path would.
  held.value().Release();
  server.queue().OnTicketReleased();
  waiter.join();
  EXPECT_TRUE(queued_resp.GetBool("ok")) << queued_resp.Dump();
  EXPECT_GE(server.queue().stats().granted_after_wait, 1u);
}

TEST(ServeServer, DeadlineExceededWhileQueued) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 60;  // Expires while parked — nobody releases.
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "deadline_exceeded") << resp.Dump();
  EXPECT_GE(server.queue().stats().expired_in_queue, 1u);
  held.value().Release();
}

TEST(ServeServer, DeadlineExceededAfterDequeueBeforeExecution) {
  // The serve.queue.dispatch delay models a slow step between the queue
  // grant and job submission; the post-dequeue re-check must catch the
  // deadline that passed in between — deterministically, no contention
  // required.
  ScopedFailpoints guard("serve.queue.dispatch=always/delay:120");
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 50;
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "deadline_exceeded") << resp.Dump();
  EXPECT_NE(resp.GetString("message").find("after dequeue"),
            std::string::npos)
      << resp.Dump();
}

TEST(ServeServer, FullQueueFallsBackToOverloaded) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 1;
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());

  JsonValue parked_resp;
  std::thread parked([&] {
    Request req;
    req.op = Op::kClean;
    req.tenant = "acme";
    req.dataset = "food";
    req.deadline_ms = 10000;
    parked_resp = server.Handle(req.ToJson());
  });
  while (server.queue().stats().depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queue full is a capacity condition, not a deadline one: today's
  // `overloaded` contract holds.
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  req.deadline_ms = 10000;
  JsonValue resp = server.Handle(req.ToJson());
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("error"), "overloaded") << resp.Dump();
  EXPECT_NE(resp.GetString("message").find("queue full"), std::string::npos);

  held.value().Release();
  server.queue().OnTicketReleased();
  parked.join();
  EXPECT_TRUE(parked_resp.GetBool("ok")) << parked_resp.Dump();
}

TEST(ServeServer, InjectedSpillSaveFailureFallsBackToColdRecompute) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("failspill");
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok")) << first_a.Dump();

  // Cleaning b evicts a's parked session; the injected save failure
  // makes the spill vanish instead of persisting. Graceful degradation:
  // nothing crashes, a's warmth is lost, correctness is not.
  {
    ScopedFailpoints guard("engine.spill.save=always/error");
    ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  }
  EXPECT_FALSE(server.engine().HasSpilledSession("acme/a"));

  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok")) << again_a.Dump();
  EXPECT_FALSE(again_a.GetBool("warm"));
  EXPECT_FALSE(again_a.GetBool("restored_from_spill"));
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

TEST(ServeServer, InjectedSpillRestoreFailureFallsBackToColdRecompute) {
  ServerOptions options = FastServerOptions();
  options.session_cache_capacity = 1;
  options.spill_directory = FreshDir("failrestore");
  CleaningServer server(options);
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "a", payload)).GetBool("ok"));
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "b", payload)).GetBool("ok"));

  JsonValue first_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(first_a.GetBool("ok")) << first_a.Dump();
  ASSERT_TRUE(server.Handle(CleanFrame("acme", "b")).GetBool("ok"));
  ASSERT_TRUE(server.engine().HasSpilledSession("acme/a"));

  // The spill snapshot exists but its restore fails (as a corrupt or
  // truncated file would): the request recomputes cold and succeeds.
  ScopedFailpoints guard("engine.spill.restore=always/error");
  JsonValue again_a = server.Handle(CleanFrame("acme", "a"));
  ASSERT_TRUE(again_a.GetBool("ok")) << again_a.Dump();
  EXPECT_EQ(RepairsDump(again_a), RepairsDump(first_a));
}

TEST(ServeServer, MidFrameCorruptionClosesOnlyThatConnection) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto victim = Client::Connect(server.port());
  ASSERT_TRUE(victim.ok());
  auto bystander = Client::Connect(server.port());
  ASSERT_TRUE(bystander.ok());

  {
    // The corruption fires on the next frame written in this process —
    // the victim's request below. The server reads a full frame of
    // garbage, answers with a protocol error, and closes that
    // connection only.
    ScopedFailpoints guard("serve.frame.corrupt_write=on:1/error");
    Request list;
    list.op = Op::kListDatasets;
    auto corrupted = victim.value().Call(list);
    if (corrupted.ok()) {
      EXPECT_FALSE(corrupted.value().GetBool("ok"));
      EXPECT_EQ(corrupted.value().GetString("error"), "invalid_argument")
          << corrupted.value().Dump();
    }
    // Either way the stream is dead now.
    auto after = victim.value().Call(list);
    EXPECT_FALSE(after.ok() && after.value().GetBool("ok"));
  }

  // The bystander's connection and the server itself are unaffected.
  Request clean;
  clean.op = Op::kClean;
  clean.tenant = "acme";
  clean.dataset = "food";
  auto fine = bystander.value().Call(clean);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_TRUE(fine.value().GetBool("ok")) << fine.value().Dump();
  server.Stop();
}

TEST(ServeServer, SlowLorisConnectionIsTimedOutAndClosed) {
  ServerOptions options = FastServerOptions();
  options.socket_timeout_ms = 100;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A hostile client sends half a length prefix and stalls. The read
  // timeout must reclaim the connection thread: the server sends a
  // best-effort timeout error frame and closes.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  char half[2] = {0, 0};
  ASSERT_EQ(::send(fd, half, 2, 0), 2);

  // Drain whatever the server sends until it closes; this must complete
  // quickly (the 100ms timeout), not hang for the test's lifetime.
  auto start = std::chrono::steady_clock::now();
  std::string received;
  char buf[512];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ::close(fd);
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_NE(received.find("timeout"), std::string::npos) << received;

  // The listener survives slow-loris peers: a well-behaved request on a
  // fresh connection still succeeds.
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request list;
  list.op = Op::kListDatasets;
  auto resp = client.value().Call(list);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp.value().GetBool("ok"));

  // explain_status surfaces the timeout in the server counters.
  Request status;
  status.op = Op::kExplainStatus;
  auto st = client.value().Call(status);
  ASSERT_TRUE(st.ok());
  const JsonValue* srv = st.value().Find("server");
  ASSERT_NE(srv, nullptr) << st.value().Dump();
  EXPECT_GE(srv->GetInt("socket_timeouts", 0), 1);
  server.Stop();
}

TEST(ServeServer, DrainUnderLoadAnswersEveryRequest) {
  // Drain with one slow request in flight and more parked in the queue:
  // the in-flight one completes, every queued one gets a `draining`
  // response, nothing hangs, and no connection dies unanswered.
  ScopedFailpoints guard("engine.job.run=always/delay:250");
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.admission.global_inflight = 1;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::vector<JsonValue> responses(kClients);
  std::vector<Status> transports(kClients, Status::OK());
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      Request req;
      req.op = Op::kClean;
      req.tenant = "acme";
      req.dataset = "food";
      req.deadline_ms = 20000;
      auto resp = client.value().Call(req);
      if (resp.ok()) {
        responses[static_cast<size_t>(i)] = resp.value();
      } else {
        transports[static_cast<size_t>(i)] = resp.status();
      }
    });
  }
  // Let one request reach the engine (delayed there) and the rest park.
  while (server.queue().stats().depth < kClients - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Drain().ok());
  for (std::thread& t : threads) t.join();

  int ok_count = 0, draining_count = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(transports[static_cast<size_t>(i)].ok())
        << "client " << i << " got no response: "
        << transports[static_cast<size_t>(i)].ToString();
    const JsonValue& resp = responses[static_cast<size_t>(i)];
    if (resp.GetBool("ok")) {
      ok_count++;
    } else {
      EXPECT_EQ(resp.GetString("error"), "draining") << resp.Dump();
      draining_count++;
    }
  }
  EXPECT_EQ(ok_count + draining_count, kClients);
  EXPECT_GE(ok_count, 1);  // The in-flight request finished its work.
}

TEST(ServeClient, RetriesOverloadedWithBackoffUntilSlotFrees) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 0;  // Reject-only: rejections are immediate.
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));

  auto held = server.admission().Admit("acme");
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    held.value().Release();
  });

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  serve::RetryOptions retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ms = 40;
  retry.jitter_seed = 7;
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().response.GetBool("ok"))
      << result.value().response.Dump();
  EXPECT_GE(result.value().attempts, 2);
  EXPECT_GT(result.value().backoff_ms, 0);

  // The server counted the retried attempts via the wire's `attempt`.
  Request status;
  status.op = Op::kExplainStatus;
  auto st = client.value().Call(status);
  ASSERT_TRUE(st.ok());
  const JsonValue* srv = st.value().Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->GetInt("retried_requests", 0), 1);
  server.Stop();
}

TEST(ServeClient, DoesNotRetryNonIdempotentSafeOutcomes) {
  CleaningServer server(FastServerOptions());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "nope";  // not_found: a real answer, not a transient.
  serve::RetryOptions retry;
  retry.max_attempts = 5;
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().attempts, 1);
  EXPECT_FALSE(result.value().response.GetBool("ok"));
  EXPECT_EQ(result.value().response.GetString("error"), "not_found");
  server.Stop();
}

TEST(ServeClient, RetryHonorsOverallDeadline) {
  ServerOptions options = FastServerOptions();
  options.admission.per_tenant_inflight = 1;
  options.queue.max_depth = 0;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(
      server.Handle(RegisterFrame("acme", "food", payload)).GetBool("ok"));
  auto held = server.admission().Admit("acme");  // Never released.
  ASSERT_TRUE(held.ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Request req;
  req.op = Op::kClean;
  req.tenant = "acme";
  req.dataset = "food";
  serve::RetryOptions retry;
  retry.max_attempts = 100;
  retry.initial_backoff_ms = 30;
  retry.overall_deadline_ms = 250;
  auto start = std::chrono::steady_clock::now();
  auto result = client.value().CallWithRetry(server.port(), req, retry);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_FALSE(result.ok());  // Out of budget, not out of attempts.
  EXPECT_LT(elapsed_ms, 2000);
  held.value().Release();
  server.Stop();
}

TEST(ServeServer, StatusForBusyTenantDoesNotStallOtherTenants) {
  // A status request for a tenant whose slot is busy waits for that slot;
  // it must not hold the server-wide slot table meanwhile, or every other
  // tenant's request would queue behind the busy one.
  CleaningServer server(FastServerOptions());
  Payload payload = MakePayload(0);
  ASSERT_TRUE(server.Handle(RegisterFrame("a", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(server.Handle(RegisterFrame("b", "food", payload)).GetBool("ok"));
  ASSERT_TRUE(server.Handle(CleanFrame("b", "food")).GetBool("ok"));

  // Tenant a's next job stalls for 800 ms while holding a's slot.
  ScopedFailpoints guard("engine.job.run=on:1/delay:800");
  std::atomic<int> finished{0};
  int a_rank = 0;
  std::thread busy([&] {
    EXPECT_TRUE(server.Handle(CleanFrame("a", "food")).GetBool("ok"));
    a_rank = ++finished;
  });
  while (Failpoints::Global().stats("engine.job.run").hits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread status([&] {
    Request req;
    req.op = Op::kExplainStatus;
    req.tenant = "a";
    req.dataset = "food";
    EXPECT_TRUE(server.Handle(req.ToJson()).GetBool("ok"));
  });
  // Let the status request reach a's slot before b's clean arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(server.Handle(CleanFrame("b", "food")).GetBool("ok"));
  const int b_rank = ++finished;
  busy.join();
  status.join();
  EXPECT_LT(b_rank, a_rank) << "b's warm clean waited for a's busy slot";
}

TEST(ServeServer, ExplainStatusReportsServerCountersGlobally) {
  CleaningServer server(FastServerOptions());
  // Provoke one counted error.
  JsonValue missing = server.Handle(CleanFrame("acme", "nope"));
  EXPECT_FALSE(missing.GetBool("ok"));

  // Global status needs no (tenant, dataset) target.
  Request status;
  status.op = Op::kExplainStatus;
  JsonValue resp = server.Handle(status.ToJson());
  ASSERT_TRUE(resp.GetBool("ok")) << resp.Dump();
  const JsonValue* srv = resp.Find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->GetInt("requests_total", 0), 1);
  const JsonValue* errors = srv->Find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GE(errors->GetInt("not_found", 0), 1) << resp.Dump();
  const JsonValue* queue = srv->Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->GetInt("depth", -1), 0);
}

}  // namespace
}  // namespace holoclean
