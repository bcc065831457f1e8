// Per-layer probe for the benchmark's traced run (bench/suite/README.md).
//
// Times calls into each module's public functions from outside the library;
// nothing under src/ is instrumented for it. Every measurement runs in its
// own forked child, so process-global state (TypeInterner, FuseCache, the
// heap high-water mark) starts empty for each one, and the child's peak RSS
// comes back through wait4().
//
// The single-thread passes are cumulative over the same batches (the
// zero-copy PipelineReader slices of the corpus mapping):
//   L0 read      line framing: json::IngestJsonLines with a no-op LineFn
//   L1 index     + simd::StructuralIndex::Build per line
//   L2 tokenize  + json::Tokenizer::Next to the end of each line
//   L3 infer     + inference::DirectInferType, interning off
//   L4 intern    the same with interning on
//   L5 fold      + the serial reduce tail: the record types are kept, then
//                counted in a stats::DistinctTypeSet and folded by
//                fusion::TreeFuser::Add/Finish
// A layer's self time is its pass time minus the previous pass's, so the
// self times sum to the L5 pass, which does the work of the serial
// SchemaInferencer::InferFromJsonLines (reported as core.t1_wall_s).
//
// Usage:
//   bench_suite_layers --corpus FILE --trace-out FILE [--work-dir DIR]
//                      [--threads 4] [--batch-records 200] [--rounds 3]
// Prints one JSON object {metric: value} on stdout and writes the spans of
// every pass as a Chrome trace_event file.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/io_pump.h"
#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "fusion/fuse_cache.h"
#include "fusion/tree_fuser.h"
#include "inference/direct_infer.h"
#include "io/input_source.h"
#include "io/pipeline_reader.h"
#include "json/jsonl.h"
#include "json/simd/kernel.h"
#include "json/simd/structural.h"
#include "json/tokenizer.h"
#include "stats/type_stats.h"
#include "support/status.h"
#include "support/timer.h"
#include "types/interner.h"

namespace {

using jsonsi::MonotonicNanos;
using jsonsi::Result;
using jsonsi::Status;
using jsonsi::Stopwatch;

struct Span {
  std::string name;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// What one child measured: metrics and spans, sent to the parent as text
// lines over a pipe ("m\tname\tvalue", "s\tname\ttid\tstart\tend").
class Report {
 public:
  void Metric(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ += "m\t" + name + "\t" + buf + "\n";
  }
  void AddSpan(const std::string& name, int tid, uint64_t start_ns,
               uint64_t end_ns) {
    text_ += "s\t" + name + "\t" + std::to_string(tid) + "\t" +
             std::to_string(start_ns) + "\t" + std::to_string(end_ns) + "\n";
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

struct ChildResult {
  std::map<std::string, double> metrics;
  std::vector<Span> spans;
  double peak_rss_mb = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

bool WriteAll(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Runs `body` in a forked child and collects what it reported.
Result<ChildResult> RunInChild(const std::function<Status(Report&)>& body) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  ChildResult result;
  result.start_ns = MonotonicNanos();
  pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Report report;
    Status st = Status::OK();
    try {
      st = body(report);
    } catch (const std::exception& e) {
      st = Status::Internal(e.what());
    }
    std::string text = report.text();
    if (!st.ok()) text += "e\t" + st.ToString() + "\n";
    bool written = WriteAll(fds[1], text);
    close(fds[1]);
    _exit(st.ok() && written ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  rusage usage{};
  while (wait4(pid, &wstatus, 0, &usage) < 0 && errno == EINTR) {
  }
  result.end_ns = MonotonicNanos();
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::istringstream lines(text);
  std::string line;
  std::string error;
  while (std::getline(lines, line)) {
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string part; std::getline(fields, part, '\t');) {
      f.push_back(part);
    }
    if (f.size() == 3 && f[0] == "m") {
      result.metrics[f[1]] = std::strtod(f[2].c_str(), nullptr);
    } else if (f.size() == 5 && f[0] == "s") {
      result.spans.push_back({f[1], std::atoi(f[2].c_str()),
                              std::strtoull(f[3].c_str(), nullptr, 10),
                              std::strtoull(f[4].c_str(), nullptr, 10)});
    } else if (f.size() >= 2 && f[0] == "e") {
      error = f[1];
    }
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("probe child failed: " +
                            (error.empty() ? std::string("crashed") : error));
  }
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Options {
  std::string corpus;
  std::string trace_out;
  std::string work_dir = ".";
  size_t threads = 4;
  size_t batch_records = 200;
  size_t rounds = 3;
};

// One cumulative pass: feeds every line of every batch to `work` (one span
// per batch), runs `finish`, and reports the wall-clock as "pass_s".
using LineWork = std::function<Status(std::string_view line)>;

Status Pass(const Options& o, Report& report, const LineWork& work,
            const std::function<void()>& finish = nullptr) {
  auto source = jsonsi::io::MmapSource::Open(o.corpus);
  if (!source.ok()) return source.status();
  jsonsi::io::PipelineReader reader(source.value().get(),
                                    jsonsi::io::IoOptions{});
  jsonsi::json::IngestOptions options;
  const jsonsi::json::LineFn fn =
      [&work](std::string_view line) -> Result<bool> {
    Status st = work(line);
    if (!st.ok()) return st;
    return true;
  };
  size_t batches = 0;
  Stopwatch watch;
  for (;; ++batches) {
    const uint64_t start = MonotonicNanos();
    Result<std::string_view> batch = reader.Next();
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    options.continuation = batches > 0;
    Status st = jsonsi::json::IngestJsonLines(batch.value(), fn, options);
    if (!st.ok()) return st;
    report.AddSpan("batch " + std::to_string(batches), 0, start,
                   MonotonicNanos());
  }
  if (finish) {
    const uint64_t start = MonotonicNanos();
    finish();
    report.AddSpan("finish", 0, start, MonotonicNanos());
  }
  report.Metric("pass_s", watch.ElapsedSeconds());
  report.Metric("batches", static_cast<double>(batches));
  return Status::OK();
}

struct PassSpec {
  const char* name;
  std::function<Status(const Options&, Report&)> run;
};

// The six cumulative passes, in order.
std::vector<PassSpec> Passes() {
  using jsonsi::json::Token;
  using jsonsi::json::TokenKind;
  using jsonsi::types::TypeRef;
  std::vector<PassSpec> passes;
  passes.push_back({"L0 read", [](const Options& o, Report& r) {
                      return Pass(o, r, [](std::string_view) {
                        return Status::OK();
                      });
                    }});
  passes.push_back({"L1 index", [](const Options& o, Report& r) {
                      uint64_t structurals = 0;
                      Status st = Pass(o, r, [&](std::string_view line) {
                        if (jsonsi::json::simd::ShouldIndex(line.size())) {
                          jsonsi::json::simd::StructuralIndex index;
                          index.Build(line);
                          structurals += index.StructuralCount();
                        }
                        return Status::OK();
                      });
                      r.Metric("structurals", static_cast<double>(structurals));
                      return st;
                    }});
  passes.push_back({"L2 tokenize", [](const Options& o, Report& r) {
                      uint64_t tokens = 0;
                      Status st = Pass(o, r, [&](std::string_view line) {
                        jsonsi::json::Tokenizer tokenizer(line);
                        Token token;
                        do {
                          Status next = tokenizer.Next(&token);
                          if (!next.ok()) return next;
                          ++tokens;
                        } while (token.kind != TokenKind::kEnd);
                        return Status::OK();
                      });
                      r.Metric("tokens", static_cast<double>(tokens));
                      return st;
                    }});
  passes.push_back({"L3 infer", [](const Options& o, Report& r) {
                      jsonsi::types::ScopedInterning off(false);
                      uint64_t nodes = 0;
                      Status st = Pass(o, r, [&](std::string_view line) {
                        Result<TypeRef> t =
                            jsonsi::inference::DirectInferType(line);
                        if (!t.ok()) return t.status();
                        nodes += t.value()->size();
                        return Status::OK();
                      });
                      r.Metric("type_nodes", static_cast<double>(nodes));
                      return st;
                    }});
  passes.push_back({"L4 intern", [](const Options& o, Report& r) {
                      return Pass(o, r, [](std::string_view line) {
                        return jsonsi::inference::DirectInferType(line)
                            .status();
                      });
                    }});
  passes.push_back({"L5 fold", [](const Options& o, Report& r) {
                      std::vector<TypeRef> typed;
                      size_t distinct = 0;
                      TypeRef fused;
                      Status st = Pass(
                          o, r,
                          [&](std::string_view line) {
                            Result<TypeRef> t =
                                jsonsi::inference::DirectInferType(line);
                            if (!t.ok()) return t.status();
                            typed.push_back(std::move(t).value());
                            return Status::OK();
                          },
                          [&] {
                            jsonsi::stats::DistinctTypeSet set;
                            for (const TypeRef& t : typed) set.Add(t);
                            distinct = set.size();
                            jsonsi::fusion::TreeFuser fuser;
                            for (const TypeRef& t : typed) fuser.Add(t);
                            fused = fuser.Finish();
                          });
                      auto is = jsonsi::types::TypeInterner::Global().stats();
                      auto cs = jsonsi::fusion::FuseCache::Global().stats();
                      r.Metric("records", static_cast<double>(typed.size()));
                      r.Metric("distinct_types", static_cast<double>(distinct));
                      r.Metric("fused_size",
                               fused ? static_cast<double>(fused->size()) : 0);
                      r.Metric("intern_hit_rate", is.HitRate());
                      r.Metric("intern_evictions",
                               static_cast<double>(is.evictions));
                      r.Metric("fusecache_hit_rate", cs.HitRate());
                      r.Metric("fusecache_evictions",
                               static_cast<double>(cs.evictions));
                      return st;
                    }});
  return passes;
}

// SchemaInferencer::InferFromJsonLines on the mapping at `threads`.
Status InferWhole(const Options& o, size_t threads, Report& r) {
  auto source = jsonsi::io::MmapSource::Open(o.corpus);
  if (!source.ok()) return source.status();
  jsonsi::core::InferenceOptions options;
  options.num_threads = threads;
  jsonsi::core::SchemaInferencer inferencer(options);
  const uint64_t start = MonotonicNanos();
  Stopwatch watch;
  Result<jsonsi::core::Schema> schema =
      inferencer.InferFromJsonLines(*source.value()->Contents());
  const double seconds = watch.ElapsedSeconds();
  if (!schema.ok()) return schema.status();
  r.AddSpan("InferFromJsonLines", 0, start, MonotonicNanos());
  const jsonsi::core::SchemaStats& s = schema.value().stats;
  r.Metric("wall_s", seconds);
  r.Metric("map_s", s.infer_seconds);
  r.Metric("reduce_s", s.fuse_seconds);
  r.Metric("records", static_cast<double>(s.record_count));
  r.Metric("distinct_types", static_cast<double>(s.distinct_type_count));
  r.Metric("fused_size", static_cast<double>(schema.value().type->size()));
  return Status::OK();
}

// The stdin workload's pipeline: StreamSource -> PipelineReader copying
// ring with its producer thread -> StreamingInferencer.
struct StreamPipeline {
  std::unique_ptr<jsonsi::io::StreamSource> source;
  std::unique_ptr<jsonsi::io::PipelineReader> reader;
  jsonsi::core::StreamingInferencer stream;
};

Result<std::unique_ptr<StreamPipeline>> OpenStream(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  auto p = std::make_unique<StreamPipeline>();
  p->source = std::make_unique<jsonsi::io::StreamSource>(path, fd, true);
  p->reader = std::make_unique<jsonsi::io::PipelineReader>(
      p->source.get(), jsonsi::io::IoOptions{});
  return p;
}

// core::PumpJsonLines, then SaveCheckpoint and Snapshot on the result.
Status PumpCheckpointSnapshot(const Options& o, Report& r) {
  auto p = OpenStream(o.corpus);
  if (!p.ok()) return p.status();
  jsonsi::core::PumpOptions pump;
  pump.num_threads = o.threads;
  uint64_t start = MonotonicNanos();
  Stopwatch watch;
  Status st = jsonsi::core::PumpJsonLines(*p.value()->reader,
                                          p.value()->stream, pump);
  if (!st.ok()) return st;
  r.Metric("pump_s", watch.ElapsedSeconds());
  r.AddSpan("PumpJsonLines", 0, start, MonotonicNanos());

  const std::string path = o.work_dir + "/layers.ckpt";
  std::vector<double> saves, snapshots;
  for (int i = 0; i < 5; ++i) {
    start = MonotonicNanos();
    watch.Reset();
    st = jsonsi::core::SaveCheckpoint(p.value()->stream, path);
    if (!st.ok()) return st;
    saves.push_back(watch.ElapsedMillis());
    r.AddSpan("SaveCheckpoint", 0, start, MonotonicNanos());
  }
  struct stat info{};
  if (stat(path.c_str(), &info) != 0) return Status::Internal("no checkpoint");
  std::remove(path.c_str());
  for (int i = 0; i < 5; ++i) {
    start = MonotonicNanos();
    watch.Reset();
    jsonsi::core::Schema schema = p.value()->stream.Snapshot();
    snapshots.push_back(watch.ElapsedMillis());
    r.AddSpan("Snapshot", 0, start, MonotonicNanos());
  }
  r.Metric("checkpoint_save_ms", Median(saves));
  r.Metric("checkpoint_bytes", static_cast<double>(info.st_size));
  r.Metric("snapshot_ms", Median(snapshots));
  return Status::OK();
}

// The PumpJsonLines loop with the consumer's wait inside
// PipelineReader::Next timed per batch.
Status ConsumerWait(const Options& o, Report& r) {
  auto p = OpenStream(o.corpus);
  if (!p.ok()) return p.status();
  jsonsi::core::StreamingInferencer& stream = p.value()->stream;
  double wait_s = 0;
  size_t batches = 0;
  for (;; ++batches) {
    uint64_t start = MonotonicNanos();
    Result<std::string_view> batch = p.value()->reader->Next();
    uint64_t got = MonotonicNanos();
    wait_s += static_cast<double>(got - start) * 1e-9;
    r.AddSpan("Next", 0, start, got);
    if (!batch.ok()) return batch.status();
    if (batch.value().empty()) break;
    Status st = o.threads == 1
                    ? stream.AddJsonLines(batch.value(), false)
                    : stream.AddJsonLinesParallel(batch.value(), o.threads,
                                                  false);
    if (!st.ok()) return st;
    r.AddSpan("AddJsonLines", 0, got, MonotonicNanos());
  }
  Status st = stream.FinishStream();
  if (!st.ok()) return st;
  r.Metric("consumer_wait_s", wait_s);
  r.Metric("batches", static_cast<double>(batches));
  return Status::OK();
}

// StreamingInferencer::AddJsonLines on successive server-sized batches of
// one session, as `jsi serve` ingest does in-process.
Status IngestBatches(const Options& o, Report& r) {
  constexpr size_t kBatches = 100;
  auto source = jsonsi::io::MmapSource::Open(o.corpus);
  if (!source.ok()) return source.status();
  std::string_view text = *source.value()->Contents();
  jsonsi::core::StreamingInferencer stream;
  std::vector<double> ms;
  size_t pos = 0;
  for (size_t b = 0; b < kBatches && pos < text.size(); ++b) {
    size_t end = pos;
    for (size_t n = 0; n < o.batch_records && end < text.size(); ++n) {
      size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    const uint64_t start = MonotonicNanos();
    Stopwatch watch;
    Status st = stream.AddJsonLines(text.substr(pos, end - pos), false);
    if (!st.ok()) return st;
    ms.push_back(watch.ElapsedMillis());
    r.AddSpan("AddJsonLines", 0, start, MonotonicNanos());
    pos = end;
  }
  r.Metric("ingest_ms", Median(ms));
  return Status::OK();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

Status WriteTrace(const std::string& path,
                  const std::vector<std::pair<std::string, ChildResult>>& runs,
                  uint64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto event = [&](const std::string& name, int pid, int tid, uint64_t start,
                   uint64_t end) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  first ? "" : ",\n", JsonEscape(name).c_str(), pid, tid,
                  static_cast<double>(start - origin_ns) / 1e3,
                  static_cast<double>(end - start) / 1e3);
    out << buf;
    first = false;
  };
  for (size_t i = 0; i < runs.size(); ++i) {
    const int pid = static_cast<int>(i);
    out << (first ? "" : ",\n") << "{\"name\": \"process_name\", \"ph\": "
        << "\"M\", \"pid\": " << pid << ", \"args\": {\"name\": \""
        << JsonEscape(runs[i].first) << "\"}}";
    first = false;
    const ChildResult& c = runs[i].second;
    event(runs[i].first, pid, 0, c.start_ns, c.end_ns);
    for (const Span& s : c.spans) {
      event(s.name, pid, s.tid + 1, s.start_ns, s.end_ns);
    }
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

int Fail(const Status& st) {
  std::fprintf(stderr, "bench_suite_layers: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--corpus") {
      o.corpus = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--threads") {
      o.threads = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--batch-records") {
      o.batch_records = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--rounds") {
      o.rounds = std::strtoul(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "bench_suite_layers: unknown flag %s\n",
                   flag.c_str());
      return 1;
    }
  }
  if (o.corpus.empty() || o.trace_out.empty() || o.threads == 0 ||
      o.batch_records == 0 || o.rounds == 0) {
    std::fprintf(stderr,
                 "usage: bench_suite_layers --corpus FILE --trace-out FILE "
                 "[--work-dir DIR] [--threads N] [--batch-records N] "
                 "[--rounds N]\n");
    return 1;
  }
  struct stat info{};
  if (stat(o.corpus.c_str(), &info) != 0) {
    return Fail(Status::NotFound("cannot open " + o.corpus));
  }
  const double mb = static_cast<double>(info.st_size) / 1e6;

  const uint64_t origin = MonotonicNanos();
  std::vector<std::pair<std::string, ChildResult>> runs;  // for the trace
  auto run = [&](const std::string& name,
                 const std::function<Status(Report&)>& body)
      -> Result<ChildResult> {
    Result<ChildResult> child = RunInChild(body);
    if (!child.ok()) {
      return Status::Internal(name + ": " + child.status().ToString());
    }
    runs.emplace_back(name, child.value());
    return child;
  };

  // Rounds of L0..L5 and t1 alternate, so drift on a shared machine hits
  // every pass alike; each pass time is the median over the rounds.
  const std::vector<PassSpec> passes = Passes();
  std::vector<std::vector<double>> pass_runs(passes.size());
  std::vector<double> t1_runs;
  std::map<std::string, double> m;
  std::map<std::string, double> t1m;
  for (size_t round = 1; round <= o.rounds; ++round) {
    const std::string tag = " #" + std::to_string(round);
    for (size_t k = 0; k < passes.size(); ++k) {
      auto c = run(passes[k].name + tag,
                   [&](Report& r) { return passes[k].run(o, r); });
      if (!c.ok()) return Fail(c.status());
      pass_runs[k].push_back(c.value().metrics.at("pass_s"));
      const std::string layer(passes[k].name, 2);  // "L0" .. "L5"
      for (const auto& [key, v] : c.value().metrics) m[layer + "." + key] = v;
      m[layer + ".peak_rss_mb"] =
          std::max(m[layer + ".peak_rss_mb"], c.value().peak_rss_mb);
    }
    auto t1 = run("t1 InferFromJsonLines" + tag,
                  [&](Report& r) { return InferWhole(o, 1, r); });
    if (!t1.ok()) return Fail(t1.status());
    t1m = t1.value().metrics;
    t1_runs.push_back(t1m.at("wall_s"));
  }
  std::vector<double> pass_s;
  for (const std::vector<double>& runs_k : pass_runs) {
    pass_s.push_back(Median(runs_k));
  }
  for (const char* count : {"records", "distinct_types", "fused_size"}) {
    if (m.at(std::string("L5.") + count) != t1m.at(count)) {
      return Fail(Status::Internal(std::string("the L5 pass and "
                                               "InferFromJsonLines disagree "
                                               "on ") + count));
    }
  }
  auto t4 = run("t" + std::to_string(o.threads) + " InferFromJsonLines",
                [&](Report& r) { return InferWhole(o, o.threads, r); });
  if (!t4.ok()) return Fail(t4.status());
  auto pump = run("PumpJsonLines + SaveCheckpoint + Snapshot",
                  [&](Report& r) { return PumpCheckpointSnapshot(o, r); });
  if (!pump.ok()) return Fail(pump.status());
  auto wait = run("consumer wait in PipelineReader::Next",
                  [&](Report& r) { return ConsumerWait(o, r); });
  if (!wait.ok()) return Fail(wait.status());
  auto ingest = run("AddJsonLines per batch",
                    [&](Report& r) { return IngestBatches(o, r); });
  if (!ingest.ok()) return Fail(ingest.status());
  const std::map<std::string, double>& t4m = t4.value().metrics;
  const std::map<std::string, double>& pm = pump.value().metrics;
  const std::map<std::string, double>& wm = wait.value().metrics;
  const double ingest_ms = ingest.value().metrics.at("ingest_ms");

  if (Status st = WriteTrace(o.trace_out, runs, origin); !st.ok()) {
    return Fail(st);
  }

  auto self = [&](size_t k) {
    return k == 0 ? pass_s[0] : pass_s[k] - pass_s[k - 1];
  };
  const std::vector<std::pair<const char*, double>> out = {
      {"io.read_mb_s", mb / pass_s[0]},
      {"io.read_self_s", self(0)},
      {"io.batches", wm.at("batches")},
      {"io.consumer_wait_s", wm.at("consumer_wait_s")},
      {"simd.index_mb_s", mb / pass_s[1]},
      {"simd.index_self_s", self(1)},
      {"simd.structurals", m.at("L1.structurals")},
      {"json.tokenize_mb_s", mb / pass_s[2]},
      {"json.tokenize_self_s", self(2)},
      {"json.tokens", m.at("L2.tokens")},
      {"inference.direct_mb_s", mb / pass_s[3]},
      {"inference.direct_self_s", self(3)},
      {"inference.type_nodes", m.at("L3.type_nodes")},
      {"types.intern_self_s", self(4)},
      {"types.intern_hit_rate", m.at("L5.intern_hit_rate")},
      {"types.intern_evictions", m.at("L5.intern_evictions")},
      {"fusion.fold_self_s", self(5)},
      {"fusion.fusecache_hit_rate", m.at("L5.fusecache_hit_rate")},
      {"fusion.fusecache_evictions", m.at("L5.fusecache_evictions")},
      {"fusion.distinct_types", t1m.at("distinct_types")},
      {"fusion.fused_size", t1m.at("fused_size")},
      {"fusion.peak_rss_mb", m.at("L5.peak_rss_mb")},
      {"core.t1_wall_s", Median(t1_runs)},
      {"core.t4_wall_s", t4m.at("wall_s")},
      {"core.map_s", t4m.at("map_s")},
      {"core.reduce_s", t4m.at("reduce_s")},
      {"engine.speedup_4v1", Median(t1_runs) / t4m.at("wall_s")},
      {"core.peak_rss_mb", t4.value().peak_rss_mb},
      {"core.pump_s", pm.at("pump_s")},
      {"core.checkpoint_save_ms", pm.at("checkpoint_save_ms")},
      {"core.checkpoint_bytes", pm.at("checkpoint_bytes")},
      {"core.snapshot_ms", pm.at("snapshot_ms")},
      {"server.ingest_inproc_ms", ingest_ms},
  };
  std::printf("{");
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", out[i].first,
                out[i].second);
  }
  std::printf("}\n");
  return 0;
}
