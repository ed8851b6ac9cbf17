// Every thread the library starts carries a name (at most 15 characters,
// Linux's limit), so per-thread tools such as `top -H` or `pidstat -t` can
// attribute CPU to the multiplexer shards (exclusive-port sockets included)
// and the file pipeline's disk stages.  The names are read back the way
// those tools read them: from /proc/self/task/*/comm.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "udt/file_pipeline.hpp"
#include "udt/multiplexer.hpp"
#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::set<std::string> thread_names() {
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator{"/proc/self/task", ec}) {
    std::ifstream in{task.path() / "comm"};
    std::string name;
    if (std::getline(in, name)) names.insert(name);
  }
  return names;
}

bool proc_tasks_readable() {
  return std::filesystem::exists("/proc/self/task");
}

struct Pair {
  std::unique_ptr<Socket> listener;
  std::unique_ptr<Socket> client;
  std::unique_ptr<Socket> server;
};

Pair connect_pair(const SocketOptions& opts) {
  Pair p;
  p.listener = Socket::listen(0, opts);
  if (!p.listener) return p;
  auto accepted = std::async(std::launch::async, [&] {
    return p.listener->accept(std::chrono::seconds{5});
  });
  p.client = Socket::connect("127.0.0.1", p.listener->local_port(), opts);
  p.server = accepted.get();
  return p;
}

TEST(ThreadNames, MultiplexerShardsAreNamed) {
  if (!proc_tasks_readable()) GTEST_SKIP() << "SKIPPED (no /proc)";
  Pair p = connect_pair(SocketOptions{});
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  const auto names = thread_names();
  EXPECT_TRUE(names.count("udt-tx/0")) << "no udt-tx/0 thread";
  EXPECT_TRUE(names.count("udt-rx/0")) << "no udt-rx/0 thread";
  p.client->close();
  p.server->close();
}

TEST(ThreadNames, ExclusivePortLoopsAreNamed) {
  if (!proc_tasks_readable()) GTEST_SKIP() << "SKIPPED (no /proc)";
  SocketOptions opts;
  opts.exclusive_port = true;
  Pair p = connect_pair(opts);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  // Each exclusive socket runs on a private single-shard multiplexer, so
  // its loops carry shard 0's names.
  ASSERT_NE(p.client->multiplexer(), nullptr);
  EXPECT_EQ(p.client->multiplexer()->shards(), 1u);
  const auto names = thread_names();
  EXPECT_TRUE(names.count("udt-tx/0")) << "no udt-tx/0 thread";
  EXPECT_TRUE(names.count("udt-rx/0")) << "no udt-rx/0 thread";
  p.client->close();
  p.server->close();
}

TEST(ThreadNames, FilePipelineStagesAreNamed) {
  if (!proc_tasks_readable()) GTEST_SKIP() << "SKIPPED (no /proc)";
  const std::string src = ::testing::TempDir() + "udtr_tn_src";
  const std::string dst = ::testing::TempDir() + "udtr_tn_dst";
  {
    // Larger than the reader's ring, so the reader stays alive waiting
    // for a chunk to be recycled.
    std::ofstream out{src, std::ios::binary | std::ios::trunc};
    const std::vector<char> block(64 << 10, 'x');
    for (int i = 0; i < 8; ++i) {
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
    }
  }
  FileSource::Config rd;
  rd.chunk_bytes = 64 << 10;
  rd.ring_chunks = 2;
  rd.use_uring = false;
  FileSource source{src, 0, 8 << 16, rd};
  ASSERT_TRUE(source.ok());
  FileSink::Config wr;
  wr.use_uring = false;
  FileSink sink{dst, 0, wr};

  const auto names = thread_names();
  EXPECT_TRUE(names.count("udt-file-rd")) << "no udt-file-rd thread";
  EXPECT_TRUE(names.count("udt-file-wr")) << "no udt-file-wr thread";
  source.stop();
  EXPECT_TRUE(sink.finish(/*create_if_empty=*/false));
  std::filesystem::remove(src);
  std::filesystem::remove(dst);
}

}  // namespace
}  // namespace udtr::udt
