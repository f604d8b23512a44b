// Unit tests for the embedded HTTP status endpoint and its in-tree
// client: route dispatch, ?after= tailing, error mapping (404/400/500),
// ephemeral binding, bind-conflict reporting, clean shutdown, and
// responses that end while a forked process holds the connection.

#include "telemetry/status_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "telemetry/events.hpp"

namespace ahbp::telemetry {
namespace {

StatusServer::Config test_config() {
  StatusServer::Config cfg;
  cfg.port = 0;  // ephemeral
  cfg.status_json = [] { return std::string("{\"schema\": \"test\"}"); };
  cfg.metrics_text = [] { return std::string("# TYPE x counter\nx 1\n"); };
  cfg.events_jsonl = [](std::uint64_t after) {
    return after == 0 ? std::string("{\"seq\": 1}\n") : std::string();
  };
  return cfg;
}

TEST(StatusServer, ServesAllThreeRoutes) {
  StatusServer server(test_config());
  ASSERT_NE(server.port(), 0);  // ephemeral port was bound and read back

  const HttpResponse status = http_get(server.port(), "/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(status.body, "{\"schema\": \"test\"}");
  EXPECT_EQ(status.content_type, "application/json");

  const HttpResponse metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);

  const HttpResponse events = http_get(server.port(), "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_EQ(events.body, "{\"seq\": 1}\n");
  EXPECT_EQ(events.content_type, "application/x-ndjson");
}

TEST(StatusServer, EventsAfterParameterIsForwarded) {
  StatusServer server(test_config());
  const HttpResponse tail = http_get(server.port(), "/events?after=1");
  EXPECT_EQ(tail.status, 200);
  EXPECT_TRUE(tail.body.empty());  // callback saw after=1
}

TEST(StatusServer, UnknownRouteIs404) {
  StatusServer server(test_config());
  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_get(server.port(), "/status/extra").status, 404);
}

TEST(StatusServer, MalformedAfterIs400) {
  StatusServer server(test_config());
  EXPECT_EQ(http_get(server.port(), "/events?after=xyz").status, 400);
}

TEST(StatusServer, ThrowingCallbackIs500) {
  StatusServer::Config cfg = test_config();
  cfg.status_json = []() -> std::string {
    throw std::runtime_error("snapshot raced");
  };
  StatusServer server(cfg);
  const HttpResponse res = http_get(server.port(), "/status");
  EXPECT_EQ(res.status, 500);
  EXPECT_NE(res.body.find("snapshot raced"), std::string::npos);
}

TEST(StatusServer, BindConflictThrows) {
  StatusServer first(test_config());
  StatusServer::Config clash = test_config();
  clash.port = first.port();
  EXPECT_THROW(StatusServer{clash}, std::runtime_error);
}

TEST(StatusServer, StopIsIdempotentAndRefusesAfter) {
  auto server = std::make_unique<StatusServer>(test_config());
  const std::uint16_t port = server->port();
  EXPECT_EQ(http_get(port, "/status").status, 200);
  server->stop();
  server->stop();  // idempotent
  server.reset();
  // The socket is closed; the client reports a transport failure.
  EXPECT_EQ(http_get(port, "/status", 1.0).status, 0);
}

TEST(StatusServer, ResponseEndsWhileAForkedProcessHoldsTheConnection) {
  // A process forked while a request is being served (a campaign
  // worker) inherits the connection's descriptor. The client must see
  // the response end when the server is done with it, not when that
  // process exits.
  std::atomic<pid_t> holder{-1};
  StatusServer::Config cfg = test_config();
  cfg.status_json = [&holder] {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::sleep(3);
      ::_exit(0);
    }
    holder.store(pid);
    return std::string("{}");
  };
  StatusServer server(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const HttpResponse res = http_get(server.port(), "/status", 10.0);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const pid_t pid = holder.load();
  ASSERT_GT(pid, 0);
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  EXPECT_EQ(res.status, 200);
  EXPECT_LT(seconds, 2.0);
}

TEST(StatusServer, ServesTheLiveEventLogTail) {
  EventLog log;
  StatusServer::Config cfg = test_config();
  cfg.events_jsonl = [&log](std::uint64_t after) {
    return log.render_since(after);
  };
  StatusServer server(cfg);
  log.emit("campaign_start");
  log.emit("run_start");
  const HttpResponse all = http_get(server.port(), "/events?after=0");
  EXPECT_NE(all.body.find("campaign_start"), std::string::npos);
  const HttpResponse tail = http_get(server.port(), "/events?after=1");
  EXPECT_EQ(tail.body.find("campaign_start"), std::string::npos);
  EXPECT_NE(tail.body.find("run_start"), std::string::npos);
}

}  // namespace
}  // namespace ahbp::telemetry
