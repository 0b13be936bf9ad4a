//===-- service_test.cpp - thinsliced service tests -----------------------===//
//
// The serving layer, tested end to end over real Unix sockets: protocol
// strictness (malformed, truncated, oversized frames), concurrent
// clients sharing one warm session (answers byte-identical to an
// in-process AnalysisSession), admission-control RETRY under overload,
// incremental edits, snapshot-cache warm starts, and graceful drain —
// including through the actual thinsliced and thinslice binaries.
//
// Everything but the binary test runs the SliceServer in-process, so
// the sanitizer trees (`ctest -L service` under ASan/TSan) race- and
// leak-check the whole serving path: acceptor, per-connection threads
// and their request lanes, and the registry's reader/writer locking.
//
//===----------------------------------------------------------------------===//

#include "eval/Runtime.h"
#include "pipeline/Session.h"
#include "service/Client.h"
#include "service/Server.h"
#include "slicer/Engine.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tsl;

namespace {

// The paper's Figure 1 workload (also the CLI suite's program).
const char *kProgram = R"(def readNames(count: int): Vector {
  var firstNames = new Vector();
  for (var i = 0; i < count; i = i + 1) {
    var fullName = readLine();
    var spaceInd = fullName.indexOf(" ");
    var firstName = fullName.substring(0, spaceInd - 1);
    firstNames.add(firstName);
  }
  return firstNames;
}
def main() {
  var names = readNames(readInt());
  for (var i = 0; i < names.size(); i = i + 1) {
    print("FIRST NAME: " + (string) names.get(i));
  }
}
)";

// Same program with one body statement changed (substring end index):
// a function-granular edit the incremental path can absorb.
const char *kProgramEdited = R"(def readNames(count: int): Vector {
  var firstNames = new Vector();
  for (var i = 0; i < count; i = i + 1) {
    var fullName = readLine();
    var spaceInd = fullName.indexOf(" ");
    var firstName = fullName.substring(0, spaceInd + 1);
    firstNames.add(firstName);
  }
  return firstNames;
}
def main() {
  var names = readNames(readInt());
  for (var i = 0; i < names.size(); i = i + 1) {
    print("FIRST NAME: " + (string) names.get(i));
  }
}
)";

const char *kBroken = "def main() { var x = ; }\n";

/// What the daemon is fed: the runtime prefix plus the user program,
/// exactly as `thinslice --connect` sends it.
std::string fullSource(const char *UserProgram) {
  return runtimeLibrarySource() + UserProgram;
}

/// The in-process answer the daemon must reproduce byte for byte.
std::string expectedSlice(const std::string &Source, unsigned UserLine,
                          SliceMode Mode, bool CS) {
  unsigned LineOffset = runtimeLibraryLines();
  AnalysisSession S(Source);
  if (CS) {
    SDGOptions SO;
    SO.ContextSensitive = true;
    S.setSDGOptions(SO);
  }
  Program *P = S.program();
  EXPECT_NE(P, nullptr);
  SDG *G = S.sdg();
  EXPECT_NE(G, nullptr);
  const Instr *Seed = seedAtLine(*P, UserLine + LineOffset);
  EXPECT_NE(Seed, nullptr);
  SliceResult R = CS ? TabulationSlicer(*G, Mode, nullptr, &S.summaries())
                           .slice(Seed)
                     : sliceBackward(*G, Seed, Mode, nullptr);
  return renderSliceReport(R, sliceKindName(Mode, CS), UserLine, LineOffset);
}

/// The in-process SliceEngine::run answer for \p Lines on \p S, as
/// the daemon's slice handler must send it: one report for a Slice
/// frame, one headed report per line for a BatchSlice frame.
std::string expectedRun(AnalysisSession &S, const std::vector<uint32_t> &Lines,
                        SliceMode Mode, bool Batch) {
  unsigned LineOffset = runtimeLibraryLines();
  SliceQuery Q;
  Q.Mode = Mode;
  Q.ContextSensitive = S.sdgOptions().ContextSensitive;
  Q.Summaries = &S.summaries();
  for (uint32_t Line : Lines)
    Q.Seeds.push_back(seedAtLine(*S.program(), Line + LineOffset));
  std::vector<SliceResult> Results = SliceEngine(*S.sdg()).run(Q).Results;
  std::string Out;
  for (std::size_t I = 0; I != Results.size(); ++I) {
    if (Batch)
      Out += "=== seed line " + std::to_string(Lines[I]) + " ===\n";
    Out += renderSliceReport(Results[I], Q.label(), Lines[I], LineOffset);
  }
  return Out;
}

std::string uniqueSockPath() {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/tsl-svc-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

class ServiceTest : public ::testing::Test {
protected:
  void startServer(ServerOptions O = {}) {
    Sock = uniqueSockPath();
    O.SocketPath = Sock;
    Server = std::make_unique<SliceServer>(std::move(O));
    ASSERT_TRUE(Server->listen().isOk());
    Runner = std::thread([this] { ExitCode = Server->run(); });
  }

  void stopServer() {
    if (Runner.joinable()) {
      Server->requestShutdown();
      Runner.join();
    }
  }

  void TearDown() override {
    stopServer();
    ::unlink(Sock.c_str());
  }

  /// Connects a fresh client (asserting success).
  void connect(ServiceClient &C) {
    ASSERT_TRUE(C.connect(Sock).isOk()) << Sock;
  }

  /// Loads kProgram (plus runtime prefix) and returns the session id.
  std::string loadDefault(ServiceClient &C, bool CS = false,
                          bool Incremental = false) {
    ServiceResponse Resp;
    Status S = C.loadSource(fullSource(kProgram), CS, runtimeLibraryLines(),
                            Incremental, Resp);
    EXPECT_TRUE(S.isOk()) << S.str();
    EXPECT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
    EXPECT_FALSE(Resp.Body.empty());
    return Resp.Body;
  }

  std::string Sock;
  std::unique_ptr<SliceServer> Server;
  std::thread Runner;
  int ExitCode = -1;
};

//===----------------------------------------------------------------------===//
// Query correctness: remote answers == in-process answers
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, SliceMatchesInProcessSession) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C);

  for (unsigned Line : {4u, 6u, 13u}) {
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      ServiceResponse Resp;
      ASSERT_TRUE(C.slice(Id, Line, Mode, Resp).isOk());
      ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
      EXPECT_EQ(Resp.Body,
                expectedSlice(fullSource(kProgram), Line, Mode, false));
    }
  }
}

TEST_F(ServiceTest, ContextSensitiveSliceMatchesInProcessSession) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C, /*CS=*/true);

  ServiceResponse Resp;
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
  EXPECT_EQ(Resp.Body,
            expectedSlice(fullSource(kProgram), 6, SliceMode::Thin, true));
}

TEST_F(ServiceTest, BatchSliceMatchesSingleSlices) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C);

  std::vector<uint32_t> Lines{4, 6, 13};
  ServiceResponse Batch;
  ASSERT_TRUE(C.batchSlice(Id, Lines, SliceMode::Thin, Batch).isOk());
  ASSERT_EQ(Batch.Code, ServiceStatus::Ok) << Batch.Detail;

  std::string Expected;
  for (uint32_t L : Lines) {
    Expected += "=== seed line " + std::to_string(L) + " ===\n";
    Expected += expectedSlice(fullSource(kProgram), L, SliceMode::Thin, false);
  }
  EXPECT_EQ(Batch.Body, Expected);
}

TEST_F(ServiceTest, SecondLoadOfSameWorkloadReusesWarmSession) {
  startServer();
  ServiceClient A, B;
  connect(A);
  connect(B);
  std::string IdA = loadDefault(A);
  ServiceResponse Resp;
  ASSERT_TRUE(B.loadSource(fullSource(kProgram), false, runtimeLibraryLines(),
                           false, Resp)
                  .isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_EQ(Resp.Body, IdA);       // Same workload digest.
  EXPECT_EQ(Resp.Detail, "cached"); // Served from the warm registry.
}

TEST_F(ServiceTest, CompileFailureIsReportedAndQueryable) {
  startServer();
  ServiceClient C;
  connect(C);
  ServiceResponse Load;
  ASSERT_TRUE(C.loadSource(fullSource(kBroken), false, runtimeLibraryLines(),
                           false, Load)
                  .isOk());
  EXPECT_EQ(Load.Code, ServiceStatus::Error);
  EXPECT_NE(Load.Detail.find("error"), std::string::npos);

  // The failed session keeps its id: queries on it repeat the verdict.
  ServiceResponse Slice;
  ASSERT_TRUE(C.slice(Load.Body, 1, SliceMode::Thin, Slice).isOk());
  EXPECT_EQ(Slice.Code, ServiceStatus::Error);
}

// An unknown session and an out-of-range line are bad requests; a line
// without statements is NotFound, which the tool maps to exit 1 as its
// in-process paths do. A batch names every bad line, one per line of
// Detail, and a line out of range outranks a missing statement.
TEST_F(ServiceTest, UnknownSessionIsBadRequestAndMissingSeedIsNotFound) {
  startServer();
  ServiceClient C;
  connect(C);
  ServiceResponse Resp;
  ASSERT_TRUE(C.slice("no-such-session", 6, SliceMode::Thin, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest);
  EXPECT_NE(Resp.Detail.find("unknown session"), std::string::npos);

  std::string Id = loadDefault(C);
  ASSERT_TRUE(C.slice(Id, 9999, SliceMode::Thin, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::NotFound);
  EXPECT_EQ(Resp.Detail.find("no statement at line 9999"), 0u);
  ASSERT_TRUE(C.batchSlice(Id, {6, 9998, 9999}, SliceMode::Thin, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::NotFound);
  EXPECT_EQ(Resp.Detail.find("no statement at line 9998"), 0u);
  EXPECT_NE(Resp.Detail.find("\nno statement at line 9999"),
            std::string::npos);

  // The code survives the wire codec.
  ServiceResponse Decoded;
  ASSERT_TRUE(decodeResponse(encodeResponse(Resp), Decoded).isOk());
  EXPECT_EQ(Decoded.Code, ServiceStatus::NotFound);
  EXPECT_STREQ(serviceStatusName(Decoded.Code), "not-found");

  // Line 0 and lines whose absolute line would wrap around 32 bits
  // (into the runtime prefix) never seed a statement.
  for (uint32_t Line : {0u, 0xFFFFFFFFu}) {
    const std::string Want =
        "line " + std::to_string(Line) + " is out of range";
    ASSERT_TRUE(C.slice(Id, Line, SliceMode::Thin, Resp).isOk());
    EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest) << Line;
    EXPECT_NE(Resp.Detail.find(Want), std::string::npos) << Resp.Detail;
    ASSERT_TRUE(C.batchSlice(Id, {6, Line}, SliceMode::Thin, Resp).isOk());
    EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest) << Line;
    EXPECT_NE(Resp.Detail.find(Want), std::string::npos) << Resp.Detail;
    ASSERT_TRUE(
        C.batchSlice(Id, {9999, Line}, SliceMode::Thin, Resp).isOk());
    EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest) << Line;
    EXPECT_NE(Resp.Detail.find(Want), std::string::npos) << Resp.Detail;
  }
}

//===----------------------------------------------------------------------===//
// Concurrency: many clients, one warm session
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, EightConcurrentClientsShareOneWarmSession) {
  startServer();
  ServiceClient Loader;
  connect(Loader);
  std::string Id = loadDefault(Loader);

  const unsigned Lines[] = {4, 6, 13};
  std::string Expected[3];
  for (int I = 0; I != 3; ++I)
    Expected[I] =
        expectedSlice(fullSource(kProgram), Lines[I], SliceMode::Thin, false);

  constexpr int NumClients = 8, QueriesEach = 6;
  std::atomic<int> Mismatches{0}, Failures{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T) {
    Clients.emplace_back([&, T] {
      ServiceClient C;
      if (!C.connect(Sock).isOk()) {
        Failures.fetch_add(1);
        return;
      }
      for (int Q = 0; Q != QueriesEach; ++Q) {
        int Pick = (T + Q) % 3;
        ServiceResponse Resp;
        if (!C.slice(Id, Lines[Pick], SliceMode::Thin, Resp).isOk() ||
            Resp.Code != ServiceStatus::Ok) {
          Failures.fetch_add(1);
          return;
        }
        if (Resp.Body != Expected[Pick])
          Mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Mismatches.load(), 0);
}

// Slice and BatchSlice frames share one handler and, on a
// context-sensitive session, one SummaryCache: four clients mixing
// both frame types in both modes must each get exactly the in-process
// SliceEngine::run answer.
TEST_F(ServiceTest, ClientsMixingSliceAndBatchSliceOnWarmCSSession) {
  startServer();
  ServiceClient Loader;
  connect(Loader);
  std::string Id = loadDefault(Loader, /*CS=*/true);

  AnalysisSession Local(fullSource(kProgram));
  SDGOptions SO;
  SO.ContextSensitive = true;
  Local.setSDGOptions(SO);
  ASSERT_NE(Local.sdg(), nullptr);
  struct Ask {
    std::vector<uint32_t> Lines;
    SliceMode Mode;
    bool Batch;
    std::string Want;
  };
  std::vector<Ask> Asks = {{{4}, SliceMode::Thin, false, ""},
                           {{13}, SliceMode::Traditional, false, ""},
                           {{4, 6, 13}, SliceMode::Thin, true, ""},
                           {{6, 13}, SliceMode::Traditional, true, ""},
                           {{6}, SliceMode::Thin, true, ""}};
  for (Ask &A : Asks) {
    A.Want = expectedRun(Local, A.Lines, A.Mode, A.Batch);
    ASSERT_NE(A.Want.find("context-sensitive slice from line"),
              std::string::npos);
  }

  constexpr int NumClients = 4, QueriesEach = 10;
  std::atomic<int> Mismatches{0}, Failures{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T) {
    Clients.emplace_back([&, T] {
      ServiceClient C;
      if (!C.connect(Sock).isOk()) {
        Failures.fetch_add(1);
        return;
      }
      for (int Q = 0; Q != QueriesEach; ++Q) {
        const Ask &A = Asks[(T * 3 + Q) % Asks.size()];
        ServiceResponse Resp;
        Status S = A.Batch ? C.batchSlice(Id, A.Lines, A.Mode, Resp)
                           : C.slice(Id, A.Lines.front(), A.Mode, Resp);
        if (!S.isOk() || Resp.Code != ServiceStatus::Ok) {
          Failures.fetch_add(1);
          return;
        }
        if (Resp.Body != A.Want)
          Mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST_F(ServiceTest, OverloadAnswersRetryInsteadOfQueueing) {
  ServerOptions O;
  O.MaxQueue = 1;
  startServer(std::move(O));

  // One slow request occupies the only admission slot...
  ServiceClient Slow;
  connect(Slow);
  ServiceResponse SlowResp;
  std::thread SlowCall([&] { (void)Slow.ping(1000, SlowResp); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // ...so the concurrent one is answered RETRY immediately, not parked.
  ServiceClient Fast;
  connect(Fast);
  ServiceResponse FastResp;
  ASSERT_TRUE(Fast.ping(0, FastResp).isOk());
  EXPECT_EQ(FastResp.Code, ServiceStatus::Retry);
  EXPECT_NE(FastResp.Detail.find("overloaded"), std::string::npos);

  SlowCall.join();
  EXPECT_EQ(SlowResp.Code, ServiceStatus::Ok);
  EXPECT_EQ(SlowResp.Body, "pong");
  EXPECT_GE(Server->stats().Retries.load(), 1u);

  // The overload was transient: the next request is admitted again.
  ASSERT_TRUE(Fast.ping(0, FastResp).isOk());
  EXPECT_EQ(FastResp.Code, ServiceStatus::Ok);
}

// ServerOptions::Threads bounds the requests executing at once: with
// one lane two concurrent 300 ms pings run one after the other, with
// two lanes they overlap.
TEST_F(ServiceTest, ThreadsBoundsTheRequestsExecutingAtOnce) {
  for (unsigned Threads : {1u, 2u}) {
    ServerOptions O;
    O.Threads = Threads;
    startServer(std::move(O));
    ServiceClient A, B;
    connect(A);
    connect(B);
    ServiceResponse RespA, RespB;
    auto T0 = std::chrono::steady_clock::now();
    std::thread CallA([&] { (void)A.ping(300, RespA); });
    std::thread CallB([&] { (void)B.ping(300, RespB); });
    CallA.join();
    CallB.join();
    std::chrono::duration<double, std::milli> BothAnswered =
        std::chrono::steady_clock::now() - T0;
    EXPECT_EQ(RespA.Code, ServiceStatus::Ok) << "threads " << Threads;
    EXPECT_EQ(RespB.Code, ServiceStatus::Ok) << "threads " << Threads;
    if (Threads == 1) {
      EXPECT_GE(BothAnswered.count(), 580) << "one lane serializes the pings";
    } else {
      EXPECT_LT(BothAnswered.count(), 450) << "two lanes overlap the pings";
    }
    stopServer();
  }
}

//===----------------------------------------------------------------------===//
// Protocol strictness
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, MalformedPayloadIsRejectedConnectionSurvives) {
  startServer();
  ServiceClient C;
  connect(C);

  // A well-framed payload with a bogus protocol version.
  std::vector<uint8_t> Frame = {2, 0, 0, 0, /*payload*/ 0xFF, 0xFF};
  ASSERT_TRUE(C.sendRaw(Frame).isOk());
  FrameRead F = C.readRaw();
  ASSERT_EQ(F.K, FrameRead::Ok);
  ServiceResponse Resp;
  ASSERT_TRUE(decodeResponse(F.Payload, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest);
  EXPECT_NE(Resp.Detail.find("protocol version"), std::string::npos);

  // The frame boundary was intact, so the connection still works.
  ASSERT_TRUE(C.ping(0, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_GE(Server->stats().BadFrames.load(), 1u);
}

TEST_F(ServiceTest, OversizedFrameIsRefusedAndConnectionClosed) {
  startServer();
  ServiceClient C;
  connect(C);

  // Header claiming 9 MiB: above the 8 MiB cap. The payload is never
  // read, so the server must answer and hang up.
  uint32_t Len = 9u << 20;
  std::vector<uint8_t> Header(4);
  for (int I = 0; I != 4; ++I)
    Header[static_cast<std::size_t>(I)] = static_cast<uint8_t>(Len >> (8 * I));
  ASSERT_TRUE(C.sendRaw(Header).isOk());

  FrameRead F = C.readRaw();
  ASSERT_EQ(F.K, FrameRead::Ok);
  ServiceResponse Resp;
  ASSERT_TRUE(decodeResponse(F.Payload, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::BadRequest);
  EXPECT_NE(Resp.Detail.find("exceeds"), std::string::npos);
  EXPECT_EQ(C.readRaw().K, FrameRead::Eof); // Desynced: server hung up.

  // The daemon itself is fine.
  ServiceClient C2;
  connect(C2);
  ASSERT_TRUE(C2.ping(0, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::Ok);
}

TEST_F(ServiceTest, TruncatedFrameAndMidRequestDisconnectAreContained) {
  startServer();

  {
    // Truncated: header claims 100 bytes, only 10 arrive, then close.
    ServiceClient C;
    connect(C);
    std::vector<uint8_t> Partial = {100, 0, 0, 0, 1, 2, 3, 4, 5, 6,
                                    7,   8, 9, 10};
    ASSERT_TRUE(C.sendRaw(Partial).isOk());
    C.close();
  }
  {
    // Disconnect mid-request: a full valid request, but the client
    // vanishes before reading the response.
    ServiceClient C;
    connect(C);
    ServiceRequest Ping;
    Ping.Type = ServiceMsg::Ping;
    Ping.DelayMs = 50;
    ASSERT_TRUE(writeFrame(C.fd(), encodeRequest(Ping)).isOk());
    C.close();
  }

  // Either way the daemon keeps serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ServiceClient C;
  connect(C);
  ServiceResponse Resp;
  ASSERT_TRUE(C.ping(0, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_GE(Server->stats().BadFrames.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Edits and warm starts
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, EditTakesIncrementalPathAndChangesAnswers) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C, /*CS=*/false, /*Incremental=*/true);

  ServiceResponse Before;
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, Before).isOk());
  ASSERT_EQ(Before.Code, ServiceStatus::Ok);

  ServiceResponse Edit;
  ASSERT_TRUE(C.edit(Id, fullSource(kProgramEdited), Edit).isOk());
  ASSERT_EQ(Edit.Code, ServiceStatus::Ok) << Edit.Detail;
  EXPECT_EQ(Edit.Detail, "incremental");

  // Post-edit answers equal a cold in-process session on the new text.
  ServiceResponse After;
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, After).isOk());
  ASSERT_EQ(After.Code, ServiceStatus::Ok);
  EXPECT_EQ(After.Body,
            expectedSlice(fullSource(kProgramEdited), 6, SliceMode::Thin,
                          false));
}

TEST_F(ServiceTest, EditWithoutIncrementalRebuildsCold) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C, /*CS=*/false, /*Incremental=*/false);
  ServiceResponse Edit;
  ASSERT_TRUE(C.edit(Id, fullSource(kProgramEdited), Edit).isOk());
  ASSERT_EQ(Edit.Code, ServiceStatus::Ok) << Edit.Detail;
  EXPECT_EQ(Edit.Detail, "cold rebuild");
}

// A load that asks for incremental edits gets them even when an
// earlier plain load of the same workload created the warm session.
TEST_F(ServiceTest, LaterIncrementalLoadTurnsIncrementalEditsOn) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Plain = loadDefault(C, /*CS=*/false, /*Incremental=*/false);
  ServiceResponse Load;
  ASSERT_TRUE(C.loadSource(fullSource(kProgram), false, runtimeLibraryLines(),
                           /*Incremental=*/true, Load)
                  .isOk());
  ASSERT_EQ(Load.Code, ServiceStatus::Ok) << Load.Detail;
  EXPECT_EQ(Load.Body, Plain);
  EXPECT_EQ(Load.Detail, "cached");

  ServiceResponse Edit;
  ASSERT_TRUE(C.edit(Load.Body, fullSource(kProgramEdited), Edit).isOk());
  ASSERT_EQ(Edit.Code, ServiceStatus::Ok) << Edit.Detail;
  EXPECT_EQ(Edit.Detail, "incremental");

  ServiceResponse After;
  ASSERT_TRUE(C.slice(Load.Body, 6, SliceMode::Thin, After).isOk());
  ASSERT_EQ(After.Code, ServiceStatus::Ok);
  EXPECT_EQ(After.Body, expectedSlice(fullSource(kProgramEdited), 6,
                                      SliceMode::Thin, false));
}

TEST_F(ServiceTest, EditToBrokenSourceReportsAndRecovers) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C, false, true);

  ServiceResponse Bad;
  ASSERT_TRUE(C.edit(Id, fullSource(kBroken), Bad).isOk());
  EXPECT_EQ(Bad.Code, ServiceStatus::Error);
  EXPECT_NE(Bad.Detail.find("error"), std::string::npos);

  // Slices during the broken window repeat the compile verdict...
  ServiceResponse Resp;
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::Error);

  // ...and a fixing edit brings the session back.
  ASSERT_TRUE(C.edit(Id, fullSource(kProgram), Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok);
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_EQ(Resp.Body,
            expectedSlice(fullSource(kProgram), 6, SliceMode::Thin, false));
}

TEST_F(ServiceTest, ConcurrentSlicesDuringEditStayConsistent) {
  startServer();
  ServiceClient Loader;
  connect(Loader);
  std::string Id = loadDefault(Loader, false, true);

  const std::string OldAnswer =
      expectedSlice(fullSource(kProgram), 6, SliceMode::Thin, false);
  const std::string NewAnswer =
      expectedSlice(fullSource(kProgramEdited), 6, SliceMode::Thin, false);

  // Readers hammer the session while a writer flips the source back
  // and forth: every answer must be one of the two coherent states —
  // never a torn mix, never an internal error.
  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 4; ++T) {
    Readers.emplace_back([&] {
      ServiceClient C;
      if (!C.connect(Sock).isOk()) {
        Bad.fetch_add(1);
        return;
      }
      while (!Stop.load()) {
        ServiceResponse Resp;
        if (!C.slice(Id, 6, SliceMode::Thin, Resp).isOk() ||
            Resp.Code != ServiceStatus::Ok ||
            (Resp.Body != OldAnswer && Resp.Body != NewAnswer)) {
          Bad.fetch_add(1);
          return;
        }
      }
    });
  }
  ServiceClient Editor;
  connect(Editor);
  for (int I = 0; I != 4; ++I) {
    ServiceResponse Resp;
    ASSERT_TRUE(
        Editor.edit(Id, fullSource(I % 2 ? kProgram : kProgramEdited), Resp)
            .isOk());
    ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
  }
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
}

TEST_F(ServiceTest, CacheDirWarmStartsTheNextDaemonGeneration) {
  std::string CacheDir =
      "/tmp/tsl-svc-cache-" + std::to_string(::getpid());
  ::mkdir(CacheDir.c_str(), 0755);

  {
    ServerOptions O;
    O.CacheDir = CacheDir;
    startServer(std::move(O));
    ServiceClient C;
    connect(C);
    ServiceResponse Resp;
    ASSERT_TRUE(C.loadSource(fullSource(kProgram), false,
                             runtimeLibraryLines(), false, Resp)
                    .isOk());
    ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
    EXPECT_EQ(Resp.Detail, "cold"); // First generation builds...
    stopServer();
  }

  ServerOptions O;
  O.CacheDir = CacheDir;
  startServer(std::move(O));
  ServiceClient C;
  connect(C);
  ServiceResponse Resp;
  ASSERT_TRUE(C.loadSource(fullSource(kProgram), false, runtimeLibraryLines(),
                           false, Resp)
                  .isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
  EXPECT_EQ(Resp.Detail, "warm:cache-dir"); // ...the second reuses it.

  // And the warm-started session answers correctly.
  ASSERT_TRUE(C.slice(Resp.Body, 6, SliceMode::Thin, Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_EQ(Resp.Body,
            expectedSlice(fullSource(kProgram), 6, SliceMode::Thin, false));
}

//===----------------------------------------------------------------------===//
// Stats, shutdown, drain
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, StatsReportSessionAndServerTelemetry) {
  startServer();
  ServiceClient C;
  connect(C);
  std::string Id = loadDefault(C, /*CS=*/false, /*Incremental=*/true);
  ServiceResponse Resp;
  ASSERT_TRUE(C.slice(Id, 6, SliceMode::Thin, Resp).isOk());
  ASSERT_TRUE(C.stats(Id, Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_NE(Resp.Body.find("server: "), std::string::npos);
  EXPECT_NE(Resp.Body.find("warm sessions"), std::string::npos);
  EXPECT_NE(Resp.Body.find("server: 0 edits, edit lock wait "),
            std::string::npos)
      << Resp.Body;

  // An edit counts, with its wait for the session lock.
  ASSERT_TRUE(C.edit(Id, fullSource(kProgramEdited), Resp).isOk());
  ASSERT_EQ(Resp.Code, ServiceStatus::Ok) << Resp.Detail;
  ASSERT_TRUE(C.stats(Id, Resp).isOk());
  EXPECT_NE(Resp.Body.find("server: 1 edits, edit lock wait "),
            std::string::npos)
      << Resp.Body;
  EXPECT_NE(Resp.Body.find(" ms total, "), std::string::npos) << Resp.Body;
}

TEST_F(ServiceTest, ShutdownRequestDrainsTheServer) {
  startServer();
  ServiceClient C;
  connect(C);
  ServiceResponse Resp;
  ASSERT_TRUE(C.shutdown(Resp).isOk());
  EXPECT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_EQ(Resp.Body, "draining");

  Runner.join();
  EXPECT_EQ(ExitCode, 0);

  // The socket is gone: new connections are refused.
  ServiceClient After;
  EXPECT_FALSE(After.connect(Sock).isOk());
}

TEST_F(ServiceTest, DrainFinishesInFlightRequestsBeforeExiting) {
  startServer();
  ServiceClient C;
  connect(C);
  ServiceResponse Resp;
  std::thread Slow([&] { (void)C.ping(400, Resp); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Server->requestShutdown();
  Runner.join();
  EXPECT_EQ(ExitCode, 0);

  // The in-flight ping was answered, not dropped, on the way down.
  Slow.join();
  EXPECT_EQ(Resp.Code, ServiceStatus::Ok);
  EXPECT_EQ(Resp.Body, "pong");
}

//===----------------------------------------------------------------------===//
// The real binaries: thinsliced + thinslice --connect
//===----------------------------------------------------------------------===//

/// Captures stdout of \p Cmd (cli_test's popen pattern).
/// Runs \p Cmd and returns its stdout; its exit code goes to
/// \p ExitCode and, when \p StderrPath is set, its stderr to that file.
std::string runCapture(const std::string &Cmd, int *ExitCode = nullptr,
                       const std::string &StderrPath = "/dev/null") {
  std::string Output;
  FILE *Pipe = popen((Cmd + " 2>" + StderrPath).c_str(), "r");
  if (!Pipe)
    return Output;
  char Buf[512];
  while (fgets(Buf, sizeof(Buf), Pipe))
    Output += Buf;
  int Rc = pclose(Pipe);
  if (ExitCode)
    *ExitCode = WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1;
  return Output;
}

// Tests run from build/tests; the tools live next door.
const char *const DaemonBinary = "../tools/thinsliced";
const char *const ToolBinary = "../tools/thinslice";

/// Forks a thinsliced on \p SockPath and waits for its socket: the pid,
/// or -1 when it never bound.
pid_t startDaemon(const std::string &SockPath) {
  pid_t Pid = fork();
  if (Pid == 0) {
    execl(DaemonBinary, DaemonBinary, "--socket", SockPath.c_str(),
          static_cast<char *>(nullptr));
    _exit(127);
  }
  // Wait for the readiness socket (the daemon prints a line too, but
  // the socket file is what connects can race on).
  for (int I = 0; I != 100 && Pid > 0; ++I) {
    struct stat St;
    if (::stat(SockPath.c_str(), &St) == 0)
      return Pid;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// Writes \p Text to a fresh file under /tmp named after \p Stem.
std::string writeTemp(const std::string &Stem, const std::string &Text) {
  std::string Path =
      "/tmp/tsl-svc-" + Stem + "-" + std::to_string(::getpid());
  std::ofstream(Path) << Text;
  return Path;
}

/// The whole text of the file at \p Path.
std::string fileContents(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

TEST(ServiceBinaryTest, ConnectModeMatchesInProcessAndSigtermDrains) {
  std::string SockPath = uniqueSockPath();
  std::string Program = writeTemp("prog.tsj", kProgram);
  pid_t Pid = startDaemon(SockPath);
  ASSERT_GT(Pid, 0) << "daemon never bound " << SockPath;

  int LocalRc = -1, RemoteRc = -1;
  std::string Local = runCapture(std::string(ToolBinary) + " " + Program +
                                     " --line 6",
                                 &LocalRc);
  std::string Remote = runCapture(std::string(ToolBinary) + " " + Program +
                                      " --connect " + SockPath + " --line 6",
                                  &RemoteRc);
  EXPECT_EQ(LocalRc, 0);
  EXPECT_EQ(RemoteRc, 0);
  EXPECT_EQ(Remote, Local); // Byte-identical through the real binaries.
  EXPECT_NE(Local.find("thin slice from line 6"), std::string::npos);

  // SIGTERM: graceful drain, exit 0, socket removed.
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  struct stat St;
  EXPECT_NE(::stat(SockPath.c_str(), &St), 0);
  ::unlink(Program.c_str());
}

// --connect --seeds and --connect --interactive print what the
// in-process tool prints, with its exit codes: for a seeds file of
// good lines, for one that adds an out-of-range and a no-statement
// line, for a good and a no-statement line (exit 1, like --line 40),
// and for a REPL script mixing slices, a mode switch and bad lines.
// One-shot runs also print the same stderr. The one difference is
// the in-process batch's closing "batch: N queries (U unique) on W
// workers" line, which describes the local run and has no remote
// counterpart.
TEST(ServiceBinaryTest, ConnectSeedsAndReplMatchInProcess) {
  std::string SockPath = uniqueSockPath();
  std::string Program = writeTemp("seeds-prog.tsj", kProgram);
  std::string Good = writeTemp("seeds-good", "6\n# comment\n14\n6\n");
  std::string Mixed = writeTemp("seeds-mixed", "6\n4294967295\n40\n");
  std::string Missing = writeTemp("seeds-missing", "6\n40\n");
  std::string Script =
      writeTemp("repl", "slice 6\nmode trad\nslice 14\nslice 40\n"
                        "slice 4294967295\nmode thin\nslice 9\nquit\n");
  pid_t Pid = startDaemon(SockPath);
  ASSERT_GT(Pid, 0) << "daemon never bound " << SockPath;

  const std::string Base = std::string(ToolBinary) + " " + Program;
  const std::string LocalErr = writeTemp("seeds-local-err", "");
  const std::string RemoteErr = writeTemp("seeds-remote-err", "");
  for (const std::string &Args :
       {" --seeds " + Good, " --seeds " + Good + " --mode trad",
        " --seeds " + Mixed, " --seeds " + Missing, std::string(" --line 40"),
        " --interactive < " + Script}) {
    int LocalRc = -1, RemoteRc = -1;
    std::string Local = runCapture(Base + Args, &LocalRc, LocalErr);
    std::string Remote = runCapture(Base + " --connect " + SockPath + Args,
                                    &RemoteRc, RemoteErr);
    if (Args.find(Good) != std::string::npos) {
      const std::size_t Tail = Local.rfind("batch: 3 queries (2 unique)");
      ASSERT_NE(Tail, std::string::npos) << Local;
      Local.erase(Tail);
    }
    EXPECT_EQ(Remote, Local) << Args;
    EXPECT_EQ(RemoteRc, LocalRc) << Args;
    // Errors name the same lines in the same words (the REPL's remote
    // transcript differs in framing, so only one-shot runs compare).
    if (Args.find("--interactive") == std::string::npos) {
      EXPECT_EQ(fileContents(RemoteErr), fileContents(LocalErr)) << Args;
    }
    if (Args.find(Mixed) != std::string::npos) {
      EXPECT_EQ(LocalRc, 2) << Args; // Out of range outranks no statement.
    } else if (Args.find(Missing) != std::string::npos ||
               Args.find("--line 40") != std::string::npos) {
      EXPECT_EQ(LocalRc, 1) << Args; // No statement at line 40.
      EXPECT_NE(fileContents(LocalErr).find(
                    "error: no statement at line 40 (nearest statement "
                    "lines: "),
                std::string::npos)
          << fileContents(LocalErr);
    } else {
      EXPECT_EQ(LocalRc, 0) << Args;
      EXPECT_NE(Local.find(" slice from line 6:"), std::string::npos)
          << Args;
    }
  }

  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  for (const std::string &F :
       {Program, Good, Mixed, Missing, Script, LocalErr, RemoteErr})
    ::unlink(F.c_str());
}

TEST(ServiceBinaryTest, ThreadCountsAbove32BitsAreUsageErrorsBeforeBind) {
  // 2^32 + 1 and 2^32 used to truncate to 1 request thread and to 0
  // ("auto") analysis threads. Both must now be rejected with exit 2
  // before the socket is bound. `timeout` turns a daemon that wrongly
  // starts serving into a failure instead of a hang.
  const char *Daemon = DaemonBinary;
  for (const char *Flag :
       {"--threads 4294967297", "--analysis-threads 4294967296"}) {
    std::string SockPath = uniqueSockPath();
    int Rc = -1;
    runCapture(std::string("timeout 10 ") + Daemon + " --socket " + SockPath +
                   " " + Flag,
               &Rc);
    EXPECT_EQ(Rc, 2) << Flag;
    struct stat St;
    EXPECT_NE(::stat(SockPath.c_str(), &St), 0) << Flag;
    ::unlink(SockPath.c_str());
  }
}

} // namespace
