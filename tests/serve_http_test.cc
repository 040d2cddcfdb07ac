// Tests for the HTTP serving front end and its substrate: the shared JSON
// util, the mmap zero-copy SnapshotView, the HTTP/1.1 parser/server/client,
// the MatchService endpoints, and the RCU hot-reload scheme.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http/client.h"
#include "serve/http/http.h"
#include "serve/http/server.h"
#include "serve/http/service.h"
#include "serve/mmap_snapshot.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "testing/metrics.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/obs/jsonlog.h"
#include "util/obs/profiler.h"
#include "util/string_util.h"

// The CPU profiler's SIGPROF handler is incompatible with sanitizer
// signal interception; its endpoint test is skipped under TSan/ASan.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TDMATCH_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef TDMATCH_TEST_UNDER_SANITIZER
#define TDMATCH_TEST_UNDER_SANITIZER 0
#endif

namespace tdmatch {
namespace {

using serve::http::HttpClient;
using serve::http::HttpParser;
using serve::http::HttpRequest;
using serve::http::HttpResponse;
using serve::http::HttpServer;
using serve::http::HttpServerOptions;
using serve::http::MatchService;
using serve::http::ServiceOptions;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// util/json
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesNestedValues) {
  auto v = util::JsonParse(
      " {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\ny\"} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const util::JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].number_value(), 1.0);
  EXPECT_EQ(a->items()[0].string_value(), "1");  // source spelling kept
  EXPECT_EQ(a->items()[2].number_value(), -300.0);
  const util::JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->Find("c")->bool_value());
  EXPECT_TRUE(b->Find("d")->is_null());
  EXPECT_EQ(v->Find("s")->string_value(), "x\ny");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(util::JsonParse("{\"a\": 1,}").ok());
  EXPECT_FALSE(util::JsonParse("{\"a\" 1}").ok());
  EXPECT_FALSE(util::JsonParse("[1, 2").ok());
  EXPECT_FALSE(util::JsonParse("{} trailing").ok());
  EXPECT_FALSE(util::JsonParse("\"bad \\ud800 surrogate\"").ok());
  EXPECT_FALSE(util::JsonParse("nope").ok());
  EXPECT_FALSE(util::JsonParse("").ok());
  // Nesting depth is bounded; hostile input cannot blow the stack.
  std::string deep(200, '[');
  EXPECT_FALSE(util::JsonParse(deep).ok());
}

TEST(JsonTest, FlatRecordContractIsPreserved) {
  util::JsonFlatRecord record;
  ASSERT_TRUE(util::JsonParseFlatRecord(
                  "{\"t\": \"x\", \"n\": 1994, \"b\": true, \"z\": null}",
                  &record)
                  .ok());
  ASSERT_EQ(record.size(), 4u);
  EXPECT_EQ(record[1].first, "n");
  EXPECT_EQ(record[1].second, "1994");  // numbers keep their spelling
  EXPECT_EQ(record[2].second, "true");
  EXPECT_EQ(record[3].second, "");  // null → empty, like CSV

  record.clear();
  util::Status st =
      util::JsonParseFlatRecord("{\"a\": {\"nested\": 1}}", &record);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("records must be flat"), std::string::npos);
}

TEST(JsonTest, WriterRoundTripsDoublesBitExact) {
  util::JsonWriter w;
  w.BeginObject()
      .Key("third").Value(1.0 / 3.0)
      .Key("neg").Value(-0.47423878312110901)
      .Key("nan").Value(std::nan(""))
      .Key("list").BeginArray().Value(1).Value("two\n\"quoted\"")
      .Value(false).Null().EndArray()
      .EndObject();
  auto v = util::JsonParse(w.str());
  ASSERT_TRUE(v.ok()) << w.str();
  // Shortest round-trip spelling → strtod must reproduce the exact bits.
  EXPECT_EQ(v->Find("third")->number_value(), 1.0 / 3.0);
  EXPECT_EQ(v->Find("neg")->number_value(), -0.47423878312110901);
  EXPECT_TRUE(v->Find("nan")->is_null());  // JSON has no NaN
  const auto& list = v->Find("list")->items();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[1].string_value(), "two\n\"quoted\"");
}

// ---------------------------------------------------------------------------
// serve::SnapshotView (mmap) vs SnapshotIo (copy)
// ---------------------------------------------------------------------------

embed::EmbeddingTable AwkwardTable() {
  embed::EmbeddingTable t(3);
  t.Put("plain", {1.0f, 2.0f, 3.0f});
  t.Put("label with spaces", {-0.0f, 1e-42f, 0.1f});
  t.Put("thirds", {1.0f / 3.0f, -2.0f / 3.0f, 1e20f});
  return t;
}

serve::SnapshotMeta DemoMeta() {
  serve::SnapshotMeta meta;
  meta.scenario = "unit-test";
  meta.Set("seed", "4242");
  meta.Set("candidate_prefix", "__D1:");
  return meta;
}

TEST(SnapshotViewTest, MatchesCopyingLoaderBitExact) {
  const std::string path = TempPath("view_roundtrip.tds");
  const embed::EmbeddingTable table = AwkwardTable();
  ASSERT_TRUE(serve::SnapshotIo::Write(table, DemoMeta(), path).ok());

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Identical metadata (no internal pad pair leaks through either path).
  EXPECT_EQ((*view)->meta().scenario, snap->meta.scenario);
  EXPECT_EQ((*view)->meta().extra, snap->meta.extra);
  EXPECT_EQ((*view)->meta().extra, DemoMeta().extra);
  EXPECT_EQ((*view)->dim(), snap->table.dim());
  ASSERT_EQ((*view)->size(), snap->table.size());

  // Labels in written order, payload bit-identical, both through CopyRow
  // and the in-place aligned pointer.
  EXPECT_TRUE((*view)->aligned());
  const std::vector<std::string> labels = snap->table.Labels();
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ((*view)->label(i), labels[i]);
    ASSERT_EQ((*view)->FindRow(labels[i]), static_cast<int64_t>(i));
    const std::vector<float>* want = snap->table.Get(labels[i]);
    std::vector<float> got(3);
    (*view)->CopyRow(i, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want->data(), 3 * sizeof(float)), 0)
        << labels[i];
    EXPECT_EQ(std::memcmp((*view)->row(i), want->data(), 3 * sizeof(float)),
              0);
  }
  EXPECT_EQ((*view)->FindRow("missing"), -1);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, PayloadIsAlignedForEveryStringResidue) {
  // The writer pads the pre-payload bytes to a multiple of 4 whatever the
  // accumulated label/meta string lengths are; sweep the residues.
  for (int residue = 0; residue < 8; ++residue) {
    const std::string path = TempPath("view_align.tds");
    embed::EmbeddingTable t(2);
    t.Put(std::string(static_cast<size_t>(residue + 1), 'x'), {1.0f, 2.0f});
    serve::SnapshotMeta meta;
    meta.scenario = std::string(static_cast<size_t>(residue), 's');
    ASSERT_TRUE(serve::SnapshotIo::Write(t, meta, path).ok());
    auto view = serve::SnapshotView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE((*view)->aligned()) << "residue " << residue;
    EXPECT_EQ((*view)->row(0)[1], 2.0f);
    std::remove(path.c_str());
  }
}

TEST(SnapshotViewTest, RejectionMatrixMatchesCopyingLoader) {
  const std::string path = TempPath("view_reject.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  const std::string good = ReadFileBytes(path);

  // Truncation at every interesting point fails in both loaders.
  for (size_t keep : {size_t{0}, size_t{5}, size_t{14}, good.size() / 2,
                      good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(serve::SnapshotIo::Read(path).ok()) << "copy kept " << keep;
    EXPECT_FALSE(serve::SnapshotView::Open(path).ok()) << "mmap kept "
                                                       << keep;
  }

  // One flipped payload byte: CRC mismatch in both.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  WriteFileBytes(path, corrupt);
  auto v1 = serve::SnapshotView::Open(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("CRC"), std::string::npos);
  EXPECT_FALSE(serve::SnapshotIo::Read(path).ok());

  // Header damage: magic, version, endianness.
  std::string bad = good;
  bad[0] = 'X';
  WriteFileBytes(path, bad);
  EXPECT_NE(serve::SnapshotView::Open(path).status().message().find("magic"),
            std::string::npos);
  bad = good;
  bad[4] = 99;
  WriteFileBytes(path, bad);
  EXPECT_NE(
      serve::SnapshotView::Open(path).status().message().find("version"),
      std::string::npos);
  bad = good;
  std::swap(bad[8], bad[11]);
  WriteFileBytes(path, bad);
  EXPECT_NE(
      serve::SnapshotView::Open(path).status().message().find("endian"),
      std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, RejectsOverflowingGeometryInBothLoaders) {
  // A count whose payload byte size overflows 64-bit (and a fortiori any
  // 32-bit) arithmetic, behind a valid CRC: both loaders must call out the
  // overflow instead of computing a wrapped size.
  const std::string path = TempPath("view_overflow.tds");
  ASSERT_TRUE(serve::SnapshotIo::Write(AwkwardTable(), DemoMeta(), path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint64_t absurd = uint64_t{1} << 62;  // * 12 bytes/row overflows
  std::memcpy(&bytes[16], &absurd, sizeof(absurd));
  const uint32_t crc = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteFileBytes(path, bytes);

  for (const util::Status& st :
       {serve::SnapshotIo::Read(path).status(),
        serve::SnapshotView::Open(path).status()}) {
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("overflows"), std::string::npos)
        << st.ToString();
  }

  // A merely-absurd count (fits 64-bit math, not the file) still fails
  // with the fit check in both.
  const uint64_t large = uint64_t{1} << 40;
  std::memcpy(&bytes[16], &large, sizeof(large));
  const uint32_t crc2 = util::Crc32(bytes.data() + 12, bytes.size() - 16);
  std::memcpy(&bytes[bytes.size() - 4], &crc2, sizeof(crc2));
  WriteFileBytes(path, bytes);
  EXPECT_NE(serve::SnapshotIo::Read(path).status().message().find(
                "cannot fit"),
            std::string::npos);
  EXPECT_NE(serve::SnapshotView::Open(path).status().message().find(
                "cannot fit"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotViewTest, RewritingTheFileNeverTearsALiveMapping) {
  // SnapshotIo::Write replaces via temp-file + rename, so regenerating a
  // snapshot in place (the documented reload workflow) leaves a serving
  // process's mmap on the old inode — old bytes stay intact, a fresh
  // Open sees the new ones.
  const std::string path = TempPath("view_rewrite.tds");
  embed::EmbeddingTable old_table(2);
  old_table.Put("c0", {1.0f, 2.0f});
  ASSERT_TRUE(
      serve::SnapshotIo::Write(old_table, serve::SnapshotMeta{}, path).ok());
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  embed::EmbeddingTable new_table(2);
  new_table.Put("c0", {9.0f, 8.0f});
  ASSERT_TRUE(
      serve::SnapshotIo::Write(new_table, serve::SnapshotMeta{}, path).ok());

  EXPECT_EQ((*view)->row(0)[0], 1.0f);  // the live mapping is untouched
  auto fresh = serve::SnapshotView::Open(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->row(0)[0], 9.0f);
  std::remove(path.c_str());
}

/// Snapshot with 2-d geometry: candidates c<i> fan around the circle,
/// queries q<i> on top of candidate (i + shift) mod n — shift lets two
/// snapshot files disagree about every query's nearest neighbor.
serve::Snapshot GeometricSnapshot(size_t n, size_t shift = 0) {
  serve::Snapshot snap;
  snap.meta.scenario = shift == 0 ? "geometry" : "geometry-shifted";
  snap.meta.Set("candidate_prefix", "c");
  snap.meta.Set("query_prefix", "q");
  snap.table = embed::EmbeddingTable(2);
  for (size_t i = 0; i < n; ++i) {
    const float angle =
        static_cast<float>(i) / static_cast<float>(n) * 3.1f;
    snap.table.Put("c" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  for (size_t i = 0; i < n; ++i) {
    const float angle = static_cast<float>((i + shift) % n) /
                        static_cast<float>(n) * 3.1f;
    snap.table.Put("q" + std::to_string(i),
                   {std::cos(angle), std::sin(angle)});
  }
  return snap;
}

std::string WriteGeometricSnapshot(const std::string& name, size_t n,
                                   size_t shift) {
  const std::string path = TempPath(name);
  serve::Snapshot snap = GeometricSnapshot(n, shift);
  EXPECT_TRUE(
      serve::SnapshotIo::Write(snap.table, snap.meta, path).ok());
  return path;
}

TEST(SnapshotViewTest, EngineFromViewMatchesCopyingEngineBitExact) {
  const std::string path = WriteGeometricSnapshot("view_engine.tds", 24, 0);

  auto snap = serve::SnapshotIo::Read(path);
  ASSERT_TRUE(snap.ok());
  serve::QueryEngineOptions opts;
  opts.ivf.seed = 4242;
  auto copy_engine =
      serve::QueryEngine::BuildForPrefix(std::move(*snap), "c", opts);
  ASSERT_TRUE(copy_engine.ok()) << copy_engine.status().ToString();

  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto view_engine = serve::QueryEngine::BuildFromView(*view, "c", opts);
  ASSERT_TRUE(view_engine.ok()) << view_engine.status().ToString();
  EXPECT_EQ(view_engine->num_candidates(), copy_engine->num_candidates());

  for (size_t i = 0; i < 24; ++i) {
    const std::string q = "q" + std::to_string(i);
    for (auto mode : {serve::SearchMode::kApprox, serve::SearchMode::kExact}) {
      auto a = copy_engine->Query(q, 5, mode);
      auto b = view_engine->Query(q, 5, mode);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->size(), b->size());
      for (size_t r = 0; r < a->size(); ++r) {
        EXPECT_EQ((*a)[r].label, (*b)[r].label);
        EXPECT_EQ((*a)[r].score, (*b)[r].score);  // bit-identical
      }
    }
    auto fa = copy_engine->QueryFiltered(q, {"c3", "c17", "zz"}, 4);
    auto fb = view_engine->QueryFiltered(q, {"c3", "c17", "zz"}, 4);
    ASSERT_TRUE(fa.ok() && fb.ok());
    ASSERT_EQ(fa->size(), fb->size());
    for (size_t r = 0; r < fa->size(); ++r) {
      EXPECT_EQ((*fa)[r].label, (*fb)[r].label);
      EXPECT_EQ((*fa)[r].score, (*fb)[r].score);
    }
  }
  EXPECT_TRUE(view_engine->Query("nope").status().IsNotFound());

  // Several engines can share one mapping.
  auto second = serve::QueryEngine::BuildFromView(*view, "q", opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_candidates(), 24u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestIncrementally) {
  HttpParser p(HttpParser::Mode::kRequest);
  const std::string wire =
      "POST /v1/query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n"
      "X-Custom: v\r\n\r\nbodyLEFTOVER";
  // Feed byte by byte: framing must not depend on chunk boundaries.
  for (size_t i = 0; i + 8 < wire.size(); ++i) {
    ASSERT_TRUE(p.Feed(wire.substr(i, 1)).ok()) << i;
  }
  ASSERT_TRUE(p.Feed(wire.substr(wire.size() - 8)).ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().path, "/v1/query");
  EXPECT_EQ(p.request().query, "x=1");
  EXPECT_EQ(p.request().body, "body");
  EXPECT_EQ(p.request().Header("x-custom"), "v");
  EXPECT_TRUE(p.request().KeepAlive());
  EXPECT_EQ(p.leftover(), "LEFTOVER");
}

TEST(HttpParserTest, RejectsMalformedStartLines) {
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET /x HTTP/1.1 extra\r\n\r\n", 400},
      {"G<>T / HTTP/1.1\r\n\r\n", 400},
      {"GET noslash HTTP/1.1\r\n\r\n", 400},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nbad name: v\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      // Conflicting repeated Content-Length is a smuggling vector.
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n",
       400},
  };
  for (const Case& c : cases) {
    HttpParser p(HttpParser::Mode::kRequest);
    EXPECT_FALSE(p.Feed(c.wire).ok()) << c.wire;
    EXPECT_EQ(p.http_status(), c.status) << c.wire;
  }
}

TEST(HttpParserTest, EnforcesSizeLimits) {
  serve::http::HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;

  HttpParser headers(HttpParser::Mode::kRequest, limits);
  const std::string big_header =
      "GET / HTTP/1.1\r\nX-Big: " + std::string(300, 'a');
  EXPECT_FALSE(headers.Feed(big_header).ok());
  EXPECT_EQ(headers.http_status(), 431);

  HttpParser body(HttpParser::Mode::kRequest, limits);
  EXPECT_FALSE(
      body.Feed("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n").ok());
  EXPECT_EQ(body.http_status(), 413);

  HttpParser overflow(HttpParser::Mode::kRequest, limits);
  EXPECT_FALSE(overflow
                   .Feed("POST / HTTP/1.1\r\nContent-Length: "
                         "99999999999999999999999999\r\n\r\n")
                   .ok());
  EXPECT_EQ(overflow.http_status(), 413);
}

TEST(HttpParserTest, AcceptsIdenticalRepeatedContentLength) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.Feed("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                     "Content-Length: 2\r\n\r\nok")
                  .ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().body, "ok");
}

TEST(HttpParserTest, ParsesPipelinedRequestsAcrossReset) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().path, "/a");
  p.Reset();
  ASSERT_TRUE(p.Feed("").ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.request().path, "/b");
}

TEST(HttpParserTest, ParsesResponses) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.Feed("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n"
                     "Content-Type: application/json\r\n\r\n{}")
                  .ok());
  ASSERT_TRUE(p.Done());
  EXPECT_EQ(p.response_status(), 404);
  EXPECT_EQ(p.request().body, "{}");
}

// ---------------------------------------------------------------------------
// HttpServer + HttpClient
// ---------------------------------------------------------------------------

/// Opens a raw TCP connection, sends `wire`, reads until the peer closes.
std::string RawRoundTrip(uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpServerTest, RoutesAndKeepsConnectionsAlive) {
  HttpServerOptions opts;
  opts.threads = 2;
  HttpServer server(opts);
  std::atomic<int> hits{0};
  server.Handle("GET", "/ping", [&hits](const HttpRequest&) {
    ++hits;
    return HttpResponse::Json(200, "{\"pong\":true}");
  });
  server.Handle("POST", "/echo", [](const HttpRequest& r) {
    return HttpResponse::Json(200, r.body);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Several requests over one keep-alive connection.
  for (int i = 0; i < 3; ++i) {
    auto r = client->Get("/ping");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, "{\"pong\":true}");
  }
  EXPECT_EQ(hits.load(), 3);

  auto echo = client->Post("/echo", "{\"x\":1}");
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo->body, "{\"x\":1}");

  auto missing = client->Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto wrong_method = client->Get("/echo");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  EXPECT_GE(server.requests_served(), 6u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, MalformedInputGetsErrorResponsesNeverACrash) {
  HttpServer server;
  server.Handle("GET", "/", [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(RawRoundTrip(server.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(RawRoundTrip(server.port(),
                         "GET / HTTP/9.9\r\n\r\n")
                .find("505"),
            std::string::npos);
  EXPECT_NE(RawRoundTrip(server.port(),
                         "POST / HTTP/1.1\r\nContent-Length: "
                         "999999999999\r\n\r\n")
                .find("413"),
            std::string::npos);
  const std::string huge_header =
      "GET / HTTP/1.1\r\nX: " + std::string(64 * 1024, 'a') + "\r\n\r\n";
  EXPECT_NE(RawRoundTrip(server.port(), huge_header).find("431"),
            std::string::npos);
  // The server must still answer well-formed requests afterwards.
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Get("/");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  server.Stop();
}

TEST(HttpServerTest, ClientSurvivesServerSideIdleClose) {
  HttpServerOptions opts;
  opts.idle_timeout_ms = 150;
  HttpServer server(opts);
  server.Handle("GET", "/", [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Get("/").ok());
  // Let the server reap the idle connection, then reuse the client: the
  // single-retry reconnect must hide the stale socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto r = client->Get("/");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// MatchService over HTTP
// ---------------------------------------------------------------------------

struct ServiceFixture {
  explicit ServiceFixture(const std::string& snapshot_path,
                          ServiceOptions sopts = {},
                          HttpServerOptions hopts = {})
      : service(sopts), server(hopts) {
    util::Status st = service.LoadInitial(snapshot_path);
    EXPECT_TRUE(st.ok()) << st.ToString();
    service.Register(&server);
    st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~ServiceFixture() { server.Stop(); }

  MatchService service;
  HttpServer server;
};

/// (label, score) rows parsed from a response's "matches" array.
using Matches = std::vector<std::pair<std::string, double>>;

Matches ParseMatches(const util::JsonValue& container) {
  Matches out;
  const util::JsonValue* matches = container.Find("matches");
  EXPECT_NE(matches, nullptr);
  if (matches == nullptr) return out;
  for (const auto& m : matches->items()) {
    out.emplace_back(m.Find("label")->string_value(),
                     m.Find("score")->number_value());
  }
  return out;
}

Matches ToMatches(const std::vector<serve::ScoredMatch>& scored) {
  Matches out;
  for (const auto& m : scored) out.emplace_back(m.label, m.score);
  return out;
}

TEST(MatchServiceTest, HttpResponsesAreBitIdenticalToInProcessResults) {
  const std::string path = WriteGeometricSnapshot("svc_bits.tds", 16, 0);
  ServiceFixture fx(path);

  // The in-process reference: the same mmap path the service uses.
  auto view = serve::SnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  auto engine = serve::QueryEngine::BuildFromView(*view, "c");
  ASSERT_TRUE(engine.ok());

  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < 16; ++i) {
    const std::string label = "q" + std::to_string(i);
    auto r = client->Post("/v1/query",
                          "{\"label\": \"" + label + "\", \"k\": 5}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok()) << r->body;
    EXPECT_EQ(doc->Find("snapshot_version")->number_value(), 1.0);

    auto want = engine->Query(label, 5);
    ASSERT_TRUE(want.ok());
    // Round-trippable spelling over the wire → strtod back: exact
    // double equality.
    EXPECT_EQ(ParseMatches(*doc), ToMatches(*want)) << label;
  }

  // Filtered (blocking-aware) and raw-vector queries, same contract.
  auto filtered = client->Post(
      "/v1/query", "{\"label\": \"q2\", \"allowed\": [\"c9\", \"c3\"]}");
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->status, 200) << filtered->body;
  auto fdoc = util::JsonParse(filtered->body);
  ASSERT_TRUE(fdoc.ok());
  auto fwant = engine->QueryFiltered("q2", {"c9", "c3"}, 0);
  ASSERT_TRUE(fwant.ok());
  EXPECT_EQ(ParseMatches(*fdoc), ToMatches(*fwant));

  auto vec = client->Post("/v1/query",
                          "{\"vector\": [0.5, 0.25], \"k\": 3, "
                          "\"mode\": \"exact\"}");
  ASSERT_TRUE(vec.ok());
  ASSERT_EQ(vec->status, 200) << vec->body;
  auto vdoc = util::JsonParse(vec->body);
  ASSERT_TRUE(vdoc.ok());
  auto vwant =
      engine->QueryVector({0.5f, 0.25f}, 3, serve::SearchMode::kExact);
  ASSERT_TRUE(vwant.ok());
  EXPECT_EQ(ParseMatches(*vdoc), ToMatches(*vwant));

  // Batch matches per-query results slot by slot.
  auto batch = client->Post("/v1/query",
                            "{\"labels\": [\"q0\", \"missing\", \"q5\"]}");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  auto bdoc = util::JsonParse(batch->body);
  ASSERT_TRUE(bdoc.ok());
  const auto& results = bdoc->Find("results")->items();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(ParseMatches(results[0]), ToMatches(*engine->Query("q0")));
  EXPECT_NE(results[1].Find("error"), nullptr);
  EXPECT_EQ(ParseMatches(results[2]), ToMatches(*engine->Query("q5")));
  std::remove(path.c_str());
}

TEST(MatchServiceTest, RejectsBadRequests) {
  const std::string path = WriteGeometricSnapshot("svc_bad.tds", 6, 0);
  ServiceOptions sopts;
  sopts.max_batch = 4;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  const std::pair<const char*, int> cases[] = {
      {"", 400},
      {"not json", 400},
      {"[1,2]", 400},
      {"{}", 400},                                     // no selector
      {"{\"label\": \"q0\", \"labels\": []}", 400},    // two selectors
      {"{\"label\": \"q0\", \"k\": -1}", 400},
      {"{\"label\": \"q0\", \"k\": 2.5}", 400},
      {"{\"label\": \"q0\", \"mode\": \"warp\"}", 400},
      {"{\"labels\": [\"a\",\"b\",\"c\",\"d\",\"e\"]}", 400},  // > max_batch
      {"{\"labels\": [1]}", 400},
      {"{\"labels\": \"q0\"}", 400},
      {"{\"vector\": []}", 400},
      {"{\"vector\": [\"x\"]}", 400},
      {"{\"vector\": [1.0]}", 400},                    // wrong dim
      {"{\"labels\": [\"q0\"], \"allowed\": [\"c1\"]}", 400},
      {"{\"label\": \"unknown\"}", 404},
  };
  for (const auto& c : cases) {
    auto r = client->Post("/v1/query", c.first);
    ASSERT_TRUE(r.ok()) << c.first;
    EXPECT_EQ(r->status, c.second) << c.first << " -> " << r->body;
    auto doc = util::JsonParse(r->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_NE(doc->Find("error"), nullptr) << c.first;
  }
  std::remove(path.c_str());
}

TEST(MatchServiceTest, RejectsNonFiniteQueryVectors) {
  // 1e400 parses to inf and 1e39 overflows the float cast to inf; an inf
  // component normalizes the query to NaN, which must be a 400 in both
  // modes rather than a 200 with null scores.
  const std::string path = WriteGeometricSnapshot("svc_nonfinite.tds", 6, 0);
  ServiceFixture fx(path);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  for (const char* mode : {"approx", "exact"}) {
    for (const char* vec : {"[1e400, 0]", "[0, -1e39]", "[3e38, 1]"}) {
      const std::string body = std::string("{\"vector\": ") + vec +
                               ", \"k\": 3, \"mode\": \"" + mode + "\"}";
      auto r = client->Post("/v1/query", body);
      ASSERT_TRUE(r.ok()) << body;
      // The largest finite floats still serve.
      const bool finite = std::string(vec) == "[3e38, 1]";
      EXPECT_EQ(r->status, finite ? 200 : 400) << body << " -> " << r->body;
      auto doc = util::JsonParse(r->body);
      ASSERT_TRUE(doc.ok()) << r->body;
      EXPECT_EQ(doc->Find("error") == nullptr, finite) << body;
    }
  }
  std::remove(path.c_str());
}

TEST(MatchServiceTest, HealthMetricsAndReloadEndpoints) {
  const std::string path_a = WriteGeometricSnapshot("svc_a.tds", 12, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_b.tds", 12, 5);
  ServiceFixture fx(path_a);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  auto health = client->Get("/v1/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  auto hdoc = util::JsonParse(health->body);
  ASSERT_TRUE(hdoc.ok());
  EXPECT_EQ(hdoc->Find("status")->string_value(), "ok");
  EXPECT_EQ(hdoc->Find("snapshot_version")->number_value(), 1.0);

  ASSERT_EQ(client->Post("/v1/query", "{\"label\": \"q0\"}")->status, 200);

  // Swap in B: version increments, answers change to B's geometry (q0's
  // nearest candidate is c5 there), and a reload back restores A.
  auto reload = client->Post("/v1/reload",
                             "{\"snapshot\": \"" + path_b + "\"}");
  ASSERT_TRUE(reload.ok());
  ASSERT_EQ(reload->status, 200) << reload->body;
  auto rdoc = util::JsonParse(reload->body);
  ASSERT_TRUE(rdoc.ok());
  EXPECT_EQ(rdoc->Find("snapshot_version")->number_value(), 2.0);
  EXPECT_EQ(rdoc->Find("previous_version")->number_value(), 1.0);
  EXPECT_EQ(rdoc->Find("scenario")->string_value(), "geometry-shifted");

  auto q = client->Post("/v1/query", "{\"label\": \"q0\", \"k\": 1}");
  ASSERT_TRUE(q.ok());
  auto qdoc = util::JsonParse(q->body);
  ASSERT_TRUE(qdoc.ok());
  EXPECT_EQ(qdoc->Find("snapshot_version")->number_value(), 2.0);
  ASSERT_EQ(ParseMatches(*qdoc).size(), 1u);
  EXPECT_EQ(ParseMatches(*qdoc)[0].first, "c5");

  // A failed reload keeps the current snapshot serving.
  auto bad = client->Post("/v1/reload",
                          "{\"snapshot\": \"/no/such/file.tds\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 500) << bad->body;
  auto still = client->Post("/v1/query", "{\"label\": \"q0\", \"k\": 1}");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(util::JsonParse(still->body)
                ->Find("snapshot_version")
                ->number_value(),
            2.0);

  // The registry is the one metrics surface: /v1/stats is gone.
  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 404) << stats->body;

  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  const std::string& text = metrics->body;
  EXPECT_EQ(testutil::ScrapeValue(text, "tdmatch_snapshot_version"), 2.0);
  EXPECT_EQ(testutil::ScrapeValue(text, "tdmatch_reloads_total"), 1.0);
  EXPECT_GE(testutil::ScrapeValue(text, "tdmatch_queries_total"), 3.0);
  EXPECT_GE(testutil::ScrapeValue(text, "tdmatch_query_errors_total"), 1.0);
  // Every answered query landed in the latency histogram.
  EXPECT_EQ(testutil::ScrapeValue(text, "tdmatch_request_latency_ms_count"),
            3.0);
  EXPECT_EQ(testutil::ScrapeValue(
                text, "tdmatch_request_latency_ms_bucket{le=\"+Inf\"}"),
            3.0);
  // The served snapshot's identity follows the reload onto build_info.
  const std::string info = testutil::ScrapeLine(text, "tdmatch_build_info");
  for (const char* label :
       {"scenario=\"geometry-shifted\"", "candidates=\"12\"", "dim=\"2\"",
        "index=\"ivf\"", "snapshot_format=\"1\""}) {
    EXPECT_NE(info.find(label), std::string::npos) << label << " in " << info;
  }

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(MatchServiceTest, MetricsExpositionTracingAndRequestIds) {
  const std::string path = WriteGeometricSnapshot("svc_obs.tds", 64, 0);

  ServiceOptions sopts;
  sopts.trace_sample = 1.0;  // trace every request
  util::obs::JsonLogger log;
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  sopts.logger = &log;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  // A client-supplied request id echoes back on the response.
  auto echoed = client->Request("POST", "/v1/query", "{\"label\": \"q0\"}",
                                "application/json",
                                {{"X-Request-Id", "req-42"}});
  ASSERT_TRUE(echoed.ok());
  ASSERT_EQ(echoed->status, 200) << echoed->body;
  EXPECT_EQ(echoed->Header("x-request-id"), "req-42");

  // Without one the service generates a "t-" + 16-hex id.
  auto generated = client->Post("/v1/query", "{\"label\": \"q1\"}");
  ASSERT_TRUE(generated.ok());
  const std::string id = generated->Header("x-request-id");
  ASSERT_EQ(id.size(), 18u) << id;
  EXPECT_EQ(id.substr(0, 2), "t-");

  // Heavy exact batches: enough engine work that the recorded spans must
  // explain the end-to-end time.
  std::string body = "{\"mode\": \"exact\", \"k\": 5, \"labels\": [";
  for (int i = 0; i < 64; ++i) {
    body += i > 0 ? ", " : "";
    body += "\"q" + std::to_string(i) + "\"";
  }
  body += "]}";
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    auto r = client->Post("/v1/query", body);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, 200) << r->body;
  }

  // Every JSONL line parses back through util/json; the top-level span
  // sum never exceeds the end-to-end time (top-level spans are disjoint)
  // and, on the heavy batches, covers it to within 10% on the best sample.
  size_t trace_count = 0;
  double best_coverage = 0.0;
  for (const auto& line : lines) {
    auto doc = util::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << line;
    if (doc->Find("event")->string_value() != "trace") continue;
    ++trace_count;
    EXPECT_EQ(doc->Find("endpoint")->string_value(), "/v1/query");
    EXPECT_EQ(doc->Find("status")->number_value(), 200.0);
    ASSERT_NE(doc->Find("trace_id"), nullptr);
    const double total = doc->Find("total_ms")->number_value();
    ASSERT_GT(total, 0.0) << line;
    const util::JsonValue* spans = doc->Find("spans");
    ASSERT_NE(spans, nullptr) << line;
    double span_sum = 0.0;
    for (const auto& s : spans->items()) {
      if (s.Find("depth")->number_value() == 0.0) {
        span_sum += s.Find("ms")->number_value();
      }
    }
    EXPECT_LE(span_sum, total * 1.000001) << line;
    best_coverage = std::max(best_coverage, span_sum / total);
  }
  EXPECT_EQ(trace_count, size_t{2 + kBatches});
  EXPECT_GE(best_coverage, 0.9);

  // The exposition endpoint: valid text format covering the owned
  // instruments, the admission callbacks and the build identity.
  auto m = client->Get("/v1/metrics");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->status, 200);
  EXPECT_EQ(m->Header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& text = m->body;
  for (const char* needle : {
           "# TYPE tdmatch_queries_total counter",
           "# TYPE tdmatch_request_latency_ms histogram",
           "tdmatch_request_latency_ms_bucket{le=\"+Inf\"}",
           "tdmatch_request_stage_latency_ms_bucket{stage=\"search\",le=",
           "tdmatch_traces_total",
           "tdmatch_admission_admitted_total",
           "tdmatch_admission_shed_total",
           "tdmatch_snapshot_version",
           "tdmatch_build_info{compiler=",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The query counter on the scrape covers all the traffic above.
  const std::string counter_needle = "\ntdmatch_queries_total ";
  const size_t pos = text.find(counter_needle);
  ASSERT_NE(pos, std::string::npos);
  const uint64_t queries = std::strtoull(
      text.c_str() + pos + counter_needle.size(), nullptr, 10);
  EXPECT_GE(queries, uint64_t{2 + kBatches * 64});

  // Every request above carried a trace; the build identity names a
  // compiler and a SIMD dispatch decision.
  EXPECT_GE(testutil::ScrapeValue(text, "tdmatch_traces_total"),
            static_cast<double>(2 + kBatches));
  const std::string info = testutil::ScrapeLine(text, "tdmatch_build_info");
  EXPECT_EQ(info.find("compiler=\"\""), std::string::npos) << info;
  EXPECT_EQ(info.find("simd=\"\""), std::string::npos) << info;
  EXPECT_NE(info.find("simd=\""), std::string::npos) << info;

  std::remove(path.c_str());
}

TEST(MatchServiceTest, SlowQueryLogArmsWithoutSampling) {
  const std::string path = WriteGeometricSnapshot("svc_slow.tds", 12, 0);
  ServiceOptions sopts;
  sopts.trace_sample = 0.0;      // never sampled...
  sopts.slow_query_ms = 1e-6;    // ...but everything counts as slow
  util::obs::JsonLogger log;
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  sopts.logger = &log;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_EQ(client->Post("/v1/query", "{\"label\": \"q0\"}")->status, 200);
  ASSERT_EQ(lines.size(), 1u);
  auto doc = util::JsonParse(lines[0]);
  ASSERT_TRUE(doc.ok()) << lines[0];
  EXPECT_EQ(doc->Find("event")->string_value(), "trace");
  EXPECT_TRUE(doc->Find("slow")->bool_value());
  EXPECT_FALSE(doc->Find("sampled")->bool_value());

  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(
      testutil::ScrapeValue(metrics->body, "tdmatch_slow_queries_total"),
      1.0);

  std::remove(path.c_str());
}

TEST(MatchServiceTest, ReloadRouteCanBeDisabled) {
  const std::string path = WriteGeometricSnapshot("svc_noreload.tds", 6, 0);
  ServiceOptions sopts;
  sopts.allow_reload = false;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Post("/v1/reload", "{}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ConcurrentHotReloadSoak) {
  // N client threads hammer one label while the main thread swaps the
  // snapshot back and forth M times. Every response must parse, carry a
  // version, and be byte-for-byte consistent with the in-process answer of
  // exactly the snapshot that version denotes (odd = A, even = B): no torn
  // reads, no mixed-version responses. Under ASan this also proves the old
  // mapping is unmapped only after its last reader drained.
  const std::string path_a = WriteGeometricSnapshot("soak_a.tds", 20, 0);
  const std::string path_b = WriteGeometricSnapshot("soak_b.tds", 20, 7);

  // In-process references, bit-identical to what the service builds.
  ServiceOptions sopts;
  auto view_a = serve::SnapshotView::Open(path_a);
  auto view_b = serve::SnapshotView::Open(path_b);
  ASSERT_TRUE(view_a.ok() && view_b.ok());
  auto engine_a = serve::QueryEngine::BuildFromView(*view_a, "c",
                                                    sopts.engine);
  auto engine_b = serve::QueryEngine::BuildFromView(*view_b, "c",
                                                    sopts.engine);
  ASSERT_TRUE(engine_a.ok() && engine_b.ok());
  const Matches want_a = ToMatches(*engine_a->Query("q1", 5));
  const Matches want_b = ToMatches(*engine_b->Query("q1", 5));
  ASSERT_NE(want_a, want_b);  // the soak must be able to tell them apart

  constexpr size_t kClients = 4;
  constexpr size_t kReloads = 12;
  constexpr size_t kQueriesPerClient = 60;

  HttpServerOptions hopts;
  hopts.threads = kClients + 2;  // clients hold workers; reloads need one
  ServiceFixture fx(path_a, sopts, hopts);

  std::atomic<uint64_t> seen_a{0}, seen_b{0}, failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        auto r = client->Post("/v1/query", "{\"label\": \"q1\", \"k\": 5}");
        if (!r.ok() || r->status != 200) {
          ++failures;
          continue;
        }
        auto doc = util::JsonParse(r->body);
        if (!doc.ok() || doc->Find("snapshot_version") == nullptr) {
          ++failures;
          continue;
        }
        const auto version = static_cast<uint64_t>(
            doc->Find("snapshot_version")->number_value());
        const Matches got = ParseMatches(*doc);
        // Odd versions are A (initial load + every second reload), even
        // are B. The payload must match that snapshot exactly.
        const Matches& want = version % 2 == 1 ? want_a : want_b;
        (version % 2 == 1 ? seen_a : seen_b)++;
        if (got != want) {
          ++failures;
          ADD_FAILURE() << "version " << version
                        << " answered with the other snapshot's payload: "
                        << r->body;
        }
        if (t == 0 && i % 8 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }

  auto reload_client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(reload_client.ok());
  for (size_t i = 1; i <= kReloads; ++i) {
    const std::string& target = i % 2 == 1 ? path_b : path_a;
    auto r = reload_client->Post("/v1/reload",
                                 "{\"snapshot\": \"" + target + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(seen_a.load() + seen_b.load(), 0u);
  // The final state is version 1 + kReloads, serving A (kReloads even).
  auto final_state = fx.service.state();
  EXPECT_EQ(final_state->version, 1 + kReloads);
  EXPECT_EQ(ToMatches(*final_state->engine->Query("q1", 5)), want_a);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// Continuous observability: /v1/metrics/history, /v1/slo, degraded
// healthz, /v1/debug/profile
// ---------------------------------------------------------------------------

TEST(MatchServiceTest, HistoryEndpointTracksQueryCounter) {
  const std::string path = WriteGeometricSnapshot("svc_hist.tds", 16, 0);
  ServiceOptions sopts;
  sopts.history_interval_s = 0.05;
  ServiceFixture fx(path, sopts);

  // Let the sampler land at least one pre-traffic point, then serve a
  // known number of queries and let it sample again.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  HttpRequest query;
  query.body = "{\"label\": \"q1\", \"k\": 3}";
  constexpr int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(fx.service.HandleQuery(query).status, 200);
  }
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    HttpRequest probe;
    probe.query = "window=60&series=tdmatch_queries";
    auto doc = util::JsonParse(fx.service.HandleHistory(probe).body);
    ASSERT_TRUE(doc.ok());
    const util::JsonValue* series = doc->Find("series");
    ASSERT_NE(series, nullptr);
    if (!series->items().empty() &&
        series->items()[0].Find("last")->number_value() >= kQueries) {
      break;
    }
  }

  HttpRequest req;
  req.query = "window=60&series=tdmatch_queries&points=1";
  const HttpResponse resp = fx.service.HandleHistory(req);
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto doc = util::JsonParse(resp.body);
  ASSERT_TRUE(doc.ok()) << resp.body;
  EXPECT_EQ(doc->Find("window_seconds")->number_value(), 60.0);
  EXPECT_NEAR(doc->Find("interval_seconds")->number_value(), 0.05, 1e-9);
  EXPECT_GT(doc->Find("samples_taken")->number_value(), 1.0);
  const util::JsonValue* series = doc->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->items().empty()) << resp.body;
  const util::JsonValue& s = series->items()[0];
  EXPECT_EQ(s.Find("name")->string_value(), "tdmatch_queries_total");
  EXPECT_EQ(s.Find("type")->string_value(), "counter");
  EXPECT_EQ(s.Find("last")->number_value(), kQueries);
  // The window starts at a pre-traffic zero sample, so the delta is the
  // full query count.
  EXPECT_EQ(s.Find("delta")->number_value(), kQueries);
  EXPECT_GT(s.Find("rate_per_sec")->number_value(), 0.0);
  ASSERT_NE(s.Find("points"), nullptr);
  EXPECT_GE(s.Find("points")->items().size(), 2u);

  // Malformed window parameter.
  HttpRequest bad;
  bad.query = "window=nope";
  EXPECT_EQ(fx.service.HandleHistory(bad).status, 400);
  bad.query = "window=-5";
  EXPECT_EQ(fx.service.HandleHistory(bad).status, 400);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, SloEndpointReportsObjectivesAndWindows) {
  const std::string path = WriteGeometricSnapshot("svc_slo.tds", 16, 0);
  ServiceOptions sopts;
  sopts.latency_budget_ms = 50.0;  // enables the latency objective
  ServiceFixture fx(path, sopts);

  HttpRequest query;
  query.body = "{\"label\": \"q1\", \"k\": 3}";
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fx.service.HandleQuery(query).status, 200);
  }
  auto doc = util::JsonParse(fx.service.HandleSlo(HttpRequest()).body);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("degraded")->bool_value());
  const util::JsonValue* objectives = doc->Find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->items().size(), 2u);
  const util::JsonValue& avail = objectives->items()[0];
  EXPECT_EQ(avail.Find("name")->string_value(), "availability");
  EXPECT_EQ(avail.Find("target")->number_value(), 0.999);
  EXPECT_FALSE(avail.Find("fast_burning")->bool_value());
  EXPECT_NEAR(avail.Find("error_budget_remaining")->number_value(), 1.0,
              1e-9);
  ASSERT_EQ(avail.Find("windows")->items().size(), 4u);
  const util::JsonValue& w0 = avail.Find("windows")->items()[0];
  EXPECT_EQ(w0.Find("role")->string_value(), "fast_short");
  EXPECT_EQ(w0.Find("good")->number_value(), 10.0);
  EXPECT_EQ(w0.Find("bad")->number_value(), 0.0);
  EXPECT_EQ(objectives->items()[1].Find("name")->string_value(), "latency");
  std::remove(path.c_str());
}

TEST(MatchServiceTest, HealthzDegradesOnFastBurnAndRecovers) {
  const std::string path = WriteGeometricSnapshot("svc_burn.tds", 16, 0);
  ServiceOptions sopts;
  // Tiny windows so the trajectory runs in real time: every latency
  // breach counts (threshold 1 on a 99.9% target fires on any miss), the
  // short window forgets after 0.5 s and the long one after 1 s.
  sopts.allow_debug_delay = true;
  sopts.latency_budget_ms = 5.0;
  sopts.slo_fast = {0.5, 1.0, 1.0};
  sopts.slo_slow = {1.0, 2.0, 1.0};
  sopts.history_interval_s = 0.0;  // keep the sampler out of the timing
  ServiceFixture fx(path, sopts);

  // Phase 1: healthy.
  HttpRequest fast;
  fast.body = "{\"label\": \"q1\", \"k\": 3}";
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(fast).status, 200);
  }
  auto health = fx.service.HandleHealth(HttpRequest());
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos)
      << health.body;

  // Phase 2: every query blows the 5 ms budget -> latency fast-burn.
  HttpRequest slow;
  slow.body = "{\"label\": \"q1\", \"k\": 3, \"delay_ms\": 15}";
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(slow).status, 200);
  }
  health = fx.service.HandleHealth(HttpRequest());
  EXPECT_EQ(health.status, 200) << "degraded stays 200 by default";
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"burning_objectives\":[\"latency\"]"),
            std::string::npos)
      << health.body;
  HttpRequest strict;
  strict.query = "strict=1";
  EXPECT_EQ(fx.service.HandleHealth(strict).status, 503);

  // Phase 3: recovery — healthy traffic until the burst ages out of both
  // fast windows (~1 s; generous deadline for slow machines).
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    ASSERT_EQ(fx.service.HandleQuery(fast).status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    recovered = fx.service.HandleHealth(HttpRequest())
                    .body.find("\"status\":\"ok\"") != std::string::npos;
  }
  EXPECT_TRUE(recovered) << "healthz never flipped back to ok";
  EXPECT_EQ(fx.service.HandleHealth(strict).status, 200);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, MetricsScrapeVersusReloadHammer) {
  // Regression test for the gauge-callback/reload race: /v1/metrics and
  // /v1/metrics/history evaluate registry callbacks (including the
  // build_info labels Reload re-registers) while reloads swap them out.
  // Under TSan this is the proof the callback swap is properly locked.
  const std::string path_a = WriteGeometricSnapshot("svc_race_a.tds", 16, 0);
  const std::string path_b = WriteGeometricSnapshot("svc_race_b.tds", 16, 7);
  ServiceOptions sopts;
  sopts.history_interval_s = 0.01;  // sampler scrapes concurrently too
  HttpServerOptions hopts;
  hopts.threads = 6;
  ServiceFixture fx(path_a, sopts, hopts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&, t] {
      auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::string target =
          t == 0 ? "/v1/metrics" : "/v1/metrics/history?window=60";
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client->Get(target);
        if (!r.ok() || r->status != 200) ++failures;
      }
    });
  }
  auto reloader = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(reloader.ok());
  for (int i = 1; i <= 10; ++i) {
    const std::string& target = i % 2 == 1 ? path_b : path_a;
    auto r = reloader->Post("/v1/reload",
                            "{\"snapshot\": \"" + target + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200) << r->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(MatchServiceTest, ProfileEndpointCapturesUnderLoad) {
  if (!util::obs::CpuProfiler::Supported() || TDMATCH_TEST_UNDER_SANITIZER) {
    GTEST_SKIP() << "profiler capture not supported in this build";
  }
  const std::string path = WriteGeometricSnapshot("svc_prof.tds", 64, 0);
  ServiceFixture fx(path);

  // Parameter validation happens before any capture.
  HttpRequest bad;
  bad.query = "seconds=nope";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);
  bad.query = "hz=0";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);
  bad.query = "format=xml";
  EXPECT_EQ(fx.service.HandleProfile(bad).status, 400);

  // Keep the engine busy while the capture runs.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    HttpRequest query;
    query.body = "{\"k\": 5, \"labels\": [\"q1\", \"q2\", \"q3\", \"q4\"]}";
    while (!stop.load(std::memory_order_relaxed)) {
      fx.service.HandleQuery(query);
    }
  });
  HttpRequest req;
  req.query = "seconds=0.4&hz=500&format=json&top=10";
  const HttpResponse resp = fx.service.HandleProfile(req);
  stop.store(true);
  load.join();
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto doc = util::JsonParse(resp.body);
  ASSERT_TRUE(doc.ok()) << resp.body;
  EXPECT_EQ(doc->Find("hz")->number_value(), 500.0);
  EXPECT_GT(doc->Find("samples")->number_value(), 0.0) << resp.body;

  // Folded format is the default and is flamegraph.pl input.
  std::atomic<bool> stop2{false};
  std::thread load2([&] {
    HttpRequest query;
    query.body = "{\"k\": 5, \"labels\": [\"q1\", \"q2\", \"q3\", \"q4\"]}";
    while (!stop2.load(std::memory_order_relaxed)) {
      fx.service.HandleQuery(query);
    }
  });
  HttpRequest folded_req;
  folded_req.query = "seconds=0.4&hz=500";
  const HttpResponse folded = fx.service.HandleProfile(folded_req);
  stop2.store(true);
  load2.join();
  ASSERT_EQ(folded.status, 200);
  EXPECT_NE(folded.content_type.find("text/plain"), std::string::npos);
  EXPECT_FALSE(folded.body.empty());
  // Each line is "stack count"; the busy query loop must put tdmatch
  // frames on the profile.
  EXPECT_NE(folded.body.find("tdmatch"), std::string::npos)
      << folded.body.substr(0, 2000);
  std::remove(path.c_str());
}

TEST(MatchServiceTest, ProfileRouteCanBeDisabled) {
  const std::string path = WriteGeometricSnapshot("svc_noprof.tds", 16, 0);
  ServiceOptions sopts;
  sopts.allow_profile = false;
  ServiceFixture fx(path, sopts);
  auto client = HttpClient::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(client.ok());
  auto r = client->Get("/v1/debug/profile?seconds=0.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdmatch
