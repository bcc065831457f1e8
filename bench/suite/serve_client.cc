// Closed-loop HTTP client for the benchmark's `twitter-serve` workload
// (bench/suite/README.md), built on server::HttpConnection.
//
// One thread per session, one keep-alive connection each, no think time:
// every request is sent as soon as the previous reply arrives. Session c
// creates its session, ingests all `--batches` batches of `--batch-records`
// corpus lines starting at batch rotate*c (wrapping around), issues
// GET .../schema?format=type after every `--schema-every`th ingest, then
// reads its final schema, compares it with the reference file byte for
// byte, and closes the session. Fusion is commutative, so every session's
// schema must equal the one-shot schema of the corpus.
//
// Usage:
//   bench_suite_serve_client --port P --corpus FILE --reference FILE
//       [--sessions 4] [--batches 250] [--batch-records 200]
//       [--schema-every 4] [--rotate 62]
// Prints one JSON object: wall_s, bytes, ops, failed, mismatched, and the
// per-request latencies ingest_ms[] and schema_ms[].

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "support/timer.h"

namespace {

struct Options {
  uint16_t port = 0;
  std::string corpus;
  std::string reference;
  size_t sessions = 4;
  size_t batches = 250;
  size_t batch_records = 200;
  size_t schema_every = 4;
  size_t rotate = 62;
};

struct SessionResult {
  size_t ops = 0;
  size_t failed = 0;
  bool mismatched = false;
  std::vector<double> ingest_ms;
  std::vector<double> schema_ms;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream s;
  s << in.rdbuf();
  *out = s.str();
  return true;
}

// Cuts the first batches*batch_records lines of `text` into batches.
bool CutBatches(const std::string& text, const Options& o,
                std::vector<std::string>* batches) {
  size_t pos = 0;
  for (size_t b = 0; b < o.batches; ++b) {
    size_t end = pos;
    for (size_t n = 0; n < o.batch_records; ++n) {
      size_t nl = text.find('\n', end);
      if (nl == std::string::npos) return false;
      end = nl + 1;
    }
    batches->push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return true;
}

// Sends one request; a transport error or a non-2xx status is a failed op.
bool Call(jsonsi::server::HttpConnection& conn, SessionResult& r,
          const std::string& method, const std::string& target,
          const std::string& body, std::string* reply,
          std::vector<double>* latency_ms) {
  ++r.ops;
  jsonsi::Stopwatch watch;
  auto resp = conn.Call(method, target, body,
                        body.empty() ? "application/json"
                                     : "application/x-ndjson");
  if (latency_ms) latency_ms->push_back(watch.ElapsedMillis());
  if (!resp.ok() || resp.value().status < 200 || resp.value().status > 299) {
    ++r.failed;
    return false;
  }
  if (reply) *reply = resp.value().body;
  return true;
}

void RunSession(size_t c, const Options& o,
                const std::vector<std::string>& batches,
                const std::string& reference, SessionResult& r) {
  jsonsi::server::HttpConnection conn;
  if (!conn.Connect("127.0.0.1", o.port).ok()) {
    ++r.ops;
    ++r.failed;
    return;
  }
  std::string reply;
  if (!Call(conn, r, "POST", "/v1/sessions", "{}", &reply, nullptr)) return;
  const std::string key = "\"session\": \"";
  size_t at = reply.find(key);
  if (at == std::string::npos) {
    ++r.failed;
    return;
  }
  at += key.size();
  const std::string base =
      "/v1/sessions/" + reply.substr(at, reply.find('"', at) - at);
  const std::string schema_target = base + "/schema?format=type";
  for (size_t i = 0; i < o.batches; ++i) {
    const std::string& batch = batches[(o.rotate * c + i) % o.batches];
    Call(conn, r, "POST", base + "/ingest", batch, nullptr, &r.ingest_ms);
    if ((i + 1) % o.schema_every == 0) {
      Call(conn, r, "GET", schema_target, "", nullptr, &r.schema_ms);
    }
  }
  if (Call(conn, r, "GET", schema_target, "", &reply, &r.schema_ms)) {
    r.mismatched = reply != reference;
  }
  Call(conn, r, "DELETE", base, "", nullptr, nullptr);
}

void AppendArray(const char* name, const std::vector<SessionResult>& results,
                 std::vector<double> SessionResult::*field, std::string* out) {
  *out += ", \"";
  *out += name;
  *out += "\": [";
  bool first = true;
  char buf[32];
  for (const SessionResult& r : results) {
    for (double v : r.*field) {
      std::snprintf(buf, sizeof(buf), "%s%.6f", first ? "" : ", ", v);
      *out += buf;
      first = false;
    }
  }
  *out += "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const size_t n = std::strtoul(value.c_str(), nullptr, 10);
    if (flag == "--port") {
      o.port = static_cast<uint16_t>(n);
    } else if (flag == "--corpus") {
      o.corpus = value;
    } else if (flag == "--reference") {
      o.reference = value;
    } else if (flag == "--sessions") {
      o.sessions = n;
    } else if (flag == "--batches") {
      o.batches = n;
    } else if (flag == "--batch-records") {
      o.batch_records = n;
    } else if (flag == "--schema-every") {
      o.schema_every = n;
    } else if (flag == "--rotate") {
      o.rotate = n;
    } else {
      std::fprintf(stderr, "bench_suite_serve_client: unknown flag %s\n",
                   flag.c_str());
      return 1;
    }
  }
  if (o.port == 0 || o.corpus.empty() || o.reference.empty() ||
      o.sessions == 0 || o.batches == 0 || o.batch_records == 0 ||
      o.schema_every == 0) {
    std::fprintf(stderr,
                 "usage: bench_suite_serve_client --port P --corpus FILE "
                 "--reference FILE [--sessions N] [--batches N] "
                 "[--batch-records N] [--schema-every N] [--rotate N]\n");
    return 1;
  }
  std::string text, reference;
  std::vector<std::string> batches;
  if (!ReadFile(o.corpus, &text) || !ReadFile(o.reference, &reference)) {
    std::fprintf(stderr, "bench_suite_serve_client: cannot read inputs\n");
    return 1;
  }
  if (!CutBatches(text, o, &batches)) {
    std::fprintf(stderr,
                 "bench_suite_serve_client: corpus has fewer than %zu lines\n",
                 o.batches * o.batch_records);
    return 1;
  }
  text.clear();
  size_t bytes = 0;
  for (const std::string& b : batches) bytes += b.size();

  std::vector<SessionResult> results(o.sessions);
  jsonsi::Stopwatch wall;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < o.sessions; ++c) {
      threads.emplace_back(RunSession, c, std::cref(o), std::cref(batches),
                           std::cref(reference), std::ref(results[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = wall.ElapsedSeconds();

  size_t ops = 0, failed = 0, mismatched = 0;
  for (const SessionResult& r : results) {
    ops += r.ops;
    failed += r.failed;
    mismatched += r.mismatched ? 1 : 0;
  }
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"wall_s\": %.9f, \"bytes\": %zu, \"ops\": %zu, "
                "\"failed\": %zu, \"mismatched\": %zu",
                wall_s, bytes * o.sessions, ops, failed, mismatched);
  std::string out = head;
  AppendArray("ingest_ms", results, &SessionResult::ingest_ms, &out);
  AppendArray("schema_ms", results, &SessionResult::schema_ms, &out);
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
