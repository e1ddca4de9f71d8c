// DistributedLockSpace meshed over loopback TCP inside ONE process: three
// spaces, each with its own event loop and strand pool, and two client
// threads per space. Unlike the fork-based suites this runs under
// ThreadSanitizer, so the TCP client gate — including unlock()'s inline
// drain of the release onto the wire — is race-checked. The shared
// exclusivity witness is a plain atomic occupancy counter per resource:
// every space lives in this address space.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "transport/distributed_lock_space.hpp"

namespace dmx::transport {
namespace {

using namespace std::chrono_literals;

TEST(DistributedLockSpaceInProcess, ThreeMeshedSpacesExcludeTwoClientsEach) {
  const int n = 3;
  const int clients_per_node = 2;
  const int iterations = 60;
  const std::vector<std::string> resources = {"alpha", "beta"};

  std::vector<std::unique_ptr<DistributedLockSpace>> spaces;
  for (NodeId v = 1; v <= n; ++v) {
    DistributedLockSpaceConfig config;
    config.self = v;
    config.n = n;
    config.algorithm = baselines::algorithm_by_name("Neilsen");
    config.resources = resources;
    spaces.push_back(
        std::make_unique<DistributedLockSpace>(std::move(config)));
  }
  std::vector<std::uint16_t> ports;
  for (auto& space : spaces) ports.push_back(space->listen());
  for (NodeId v = 1; v <= n; ++v) {
    for (NodeId peer = 1; peer < v; ++peer) {
      spaces[static_cast<std::size_t>(v - 1)]->connect(
          peer, ports[static_cast<std::size_t>(peer - 1)]);
    }
  }
  for (auto& space : spaces) space->start();
  for (auto& space : spaces) ASSERT_TRUE(space->wait_connected(10000ms));

  // Witness: occupancy per resource index across every space (the
  // directory places names identically in all of them).
  std::atomic<int> occupancy[2] = {0, 0};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (NodeId v = 1; v <= n; ++v) {
    for (int c = 0; c < clients_per_node; ++c) {
      clients.emplace_back([&, v, c] {
        DistributedLockSpace& space =
            *spaces[static_cast<std::size_t>(v - 1)];
        for (int i = 0; i < iterations; ++i) {
          // Clients start on different resources so both see contention
          // from every node.
          const std::string& name =
              resources[static_cast<std::size_t>((i + c) % 2)];
          const ResourceId r = space.lookup(name);
          if (space.try_lock_for(r, 30000ms) != LockError::kOk) {
            failures.fetch_add(1);
            return;
          }
          if (occupancy[r].fetch_add(1) != 0) violations.fetch_add(1);
          occupancy[r].fetch_sub(1);
          space.unlock(r);
        }
      });
    }
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  std::uint64_t total = 0;
  for (const auto& space : spaces) {
    EXPECT_FALSE(space->first_error().has_value()) << *space->first_error();
    total += space->total_entries();
  }
  EXPECT_EQ(total,
            static_cast<std::uint64_t>(n * clients_per_node * iterations));
  // Every client finished before the first GOODBYE (departure is
  // collective).
  for (auto& space : spaces) space->shutdown();
}

}  // namespace
}  // namespace dmx::transport
