// TimedPageDevice: a forwarding PageDevice that times every call into the
// device below it.
//
// pcbench's traced run places one above the buffer pool (engine -> pool,
// reported as io.pool.*) and one below it (pool -> file, io.dev.*).  It
// forwards every PageDevice virtual, SubmitBatch/AwaitBatch, Pin/Unpin, Sync
// and ListLivePages included, so inserting it never turns a capability of
// the device below into NotSupported.  It counts nothing in the paper's
// cost model: stats() and live_pages() are the inner device's.
//
// Thread-safe when the inner device is: totals are relaxed atomics and the
// per-call Sync samples sit behind a mutex.

#ifndef PATHCACHE_BENCH_E2E_TIMED_PAGE_DEVICE_H_
#define PATHCACHE_BENCH_E2E_TIMED_PAGE_DEVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/page_device.h"

namespace pathcache {
namespace pcbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedPageDevice final : public PageDevice {
 public:
  enum Op {
    kAllocate,
    kFree,
    kRead,
    kReadBatch,
    kSubmitBatch,
    kAwaitBatch,
    kWrite,
    kSync,
    kListLivePages,
    kPin,
    kUnpin,
    kNumOps
  };

  struct OpTotals {
    uint64_t calls = 0;
    uint64_t pages = 0;  // pages moved: Read/Pin 1, batches their size
    uint64_t ns = 0;
  };

  struct Totals {
    std::array<OpTotals, kNumOps> op{};

    /// Pages handed to the caller by reads of any kind.
    uint64_t pages_read() const {
      return op[kRead].pages + op[kReadBatch].pages + op[kSubmitBatch].pages +
             op[kPin].pages;
    }
    Totals operator-(const Totals& o) const {
      Totals d;
      for (int i = 0; i < kNumOps; ++i) {
        d.op[i].calls = op[i].calls - o.op[i].calls;
        d.op[i].pages = op[i].pages - o.op[i].pages;
        d.op[i].ns = op[i].ns - o.op[i].ns;
      }
      return d;
    }
  };

  /// Does not own `inner`.
  explicit TimedPageDevice(PageDevice* inner) : inner_(inner) {}

  uint32_t page_size() const override { return inner_->page_size(); }

  Result<PageId> Allocate() override {
    return Time(kAllocate, 0, [&] { return inner_->Allocate(); });
  }
  Status Free(PageId id) override {
    return Time(kFree, 0, [&] { return inner_->Free(id); });
  }
  Status Read(PageId id, std::byte* buf) override {
    return Time(kRead, 1, [&] { return inner_->Read(id, buf); });
  }
  Status ReadBatch(std::span<const PageId> ids, std::byte* bufs) override {
    return Time(kReadBatch, ids.size(),
                [&] { return inner_->ReadBatch(ids, bufs); });
  }
  Result<uint64_t> SubmitBatch(std::span<const PageId> ids,
                               std::byte* bufs) override {
    return Time(kSubmitBatch, ids.size(),
                [&] { return inner_->SubmitBatch(ids, bufs); });
  }
  Status AwaitBatch(uint64_t ticket) override {
    return Time(kAwaitBatch, 0, [&] { return inner_->AwaitBatch(ticket); });
  }
  Status Write(PageId id, const std::byte* buf) override {
    return Time(kWrite, 1, [&] { return inner_->Write(id, buf); });
  }
  Status Sync() override {
    const uint64_t t0 = NowNs();
    Status s = inner_->Sync();
    const uint64_t ns = NowNs() - t0;
    Account(kSync, 0, ns);
    std::lock_guard<std::mutex> lk(sync_mu_);
    sync_ns_.push_back(ns);
    return s;
  }
  Status ListLivePages(std::vector<PageId>* out) override {
    return Time(kListLivePages, 0, [&] { return inner_->ListLivePages(out); });
  }
  Result<const std::byte*> Pin(PageId id) override {
    return Time(kPin, 1, [&] { return inner_->Pin(id); });
  }
  void Unpin(PageId id) override {
    const uint64_t t0 = NowNs();
    inner_->Unpin(id);
    Account(kUnpin, 0, NowNs() - t0);
  }

  const IoStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  uint64_t live_pages() const override { return inner_->live_pages(); }

  Totals totals() const {
    Totals t;
    for (int i = 0; i < kNumOps; ++i) {
      t.op[i].calls = ops_[i].calls.load(std::memory_order_relaxed);
      t.op[i].pages = ops_[i].pages.load(std::memory_order_relaxed);
      t.op[i].ns = ops_[i].ns.load(std::memory_order_relaxed);
    }
    return t;
  }

  /// Durations of the Sync() calls made since the previous call.
  std::vector<uint64_t> TakeSyncSamples() {
    std::lock_guard<std::mutex> lk(sync_mu_);
    return std::exchange(sync_ns_, {});
  }

 private:
  struct AtomicTotals {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> pages{0};
    std::atomic<uint64_t> ns{0};
  };

  template <typename F>
  std::invoke_result_t<F> Time(Op op, uint64_t pages, F&& f) {
    const uint64_t t0 = NowNs();
    auto r = f();
    Account(op, pages, NowNs() - t0);
    return r;
  }

  void Account(Op op, uint64_t pages, uint64_t ns) {
    ops_[op].calls.fetch_add(1, std::memory_order_relaxed);
    ops_[op].pages.fetch_add(pages, std::memory_order_relaxed);
    ops_[op].ns.fetch_add(ns, std::memory_order_relaxed);
  }

  PageDevice* inner_;
  std::array<AtomicTotals, kNumOps> ops_;
  std::mutex sync_mu_;
  std::vector<uint64_t> sync_ns_;
};

}  // namespace pcbench
}  // namespace pathcache

#endif  // PATHCACHE_BENCH_E2E_TIMED_PAGE_DEVICE_H_
