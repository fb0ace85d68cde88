#include "minimpi/minimpi.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include "prof/prof.hpp"
#include <exception>
#include <stdexcept>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace vpic::mpi {

namespace {

using steady = std::chrono::steady_clock;

struct MailboxKey {
  int src;
  int dst;
  int tag;
  auto operator<=>(const MailboxKey&) const = default;
};

/// A posted message plus its modeled delivery time (post time + the
/// world's injected link latency). Matching respects per-key FIFO order:
/// only the front of a mailbox deque is ever eligible.
struct Message {
  std::vector<std::byte> bytes;
  steady::time_point ready;
};

}  // namespace

// Receives are matched lazily: irecv records the match spec and wait()/
// test() drain the mailbox. This keeps minimpi free of helper threads (no
// dangling waiters if a request is abandoned) while preserving MPI
// semantics for the exchange patterns VPIC uses: post irecvs, post isends,
// then wait.
struct Request::State {
  World* world = nullptr;
  int src = -1;
  int dst = -1;
  int tag = -1;
  void* buf = nullptr;
  std::size_t capacity = 0;
  bool done = false;
};

class World {
 public:
  explicit World(int nranks, const WorldOptions& opts = {})
      : nranks_(nranks),
        latency_(std::chrono::duration_cast<steady::duration>(
            std::chrono::duration<double, std::micro>(
                opts.latency_us > 0 ? opts.latency_us : 0))) {
    slots_.resize(static_cast<std::size_t>(nranks));
  }

  int nranks() const noexcept { return nranks_; }

  void post(int src, int dst, int tag, const void* data, std::size_t bytes) {
    Message m;
    m.bytes.assign(static_cast<const std::byte*>(data),
                   static_cast<const std::byte*>(data) + bytes);
    m.ready = steady::now() + latency_;
    {
      std::lock_guard lk(mail_mutex_);
      mail_[MailboxKey{src, dst, tag}].push_back(std::move(m));
    }
    mail_cv_.notify_all();
  }

  /// Blocking receive: pops the oldest matching *delivered* message into
  /// buf. With injected latency this sleeps out the remaining flight time
  /// of the front message when nothing else can arrive first.
  std::size_t receive(int src, int dst, int tag, void* buf,
                      std::size_t capacity) {
    std::unique_lock lk(mail_mutex_);
    const MailboxKey key{src, dst, tag};
    for (;;) {
      auto it = mail_.find(key);
      if (it != mail_.end() && !it->second.empty()) {
        Message& front = it->second.front();
        if (front.ready <= steady::now()) {
          std::vector<std::byte> msg = std::move(front.bytes);
          it->second.pop_front();
          lk.unlock();
          if (msg.size() > capacity)
            throw std::length_error(
                "minimpi: message larger than recv buffer");
          if (!msg.empty()) std::memcpy(buf, msg.data(), msg.size());
          return msg.size();
        }
        mail_cv_.wait_until(lk, front.ready);
      } else {
        mail_cv_.wait(lk);
      }
    }
  }

  bool try_receive(int src, int dst, int tag, void* buf,
                   std::size_t capacity, std::size_t& got) {
    std::lock_guard lk(mail_mutex_);
    auto it = mail_.find(MailboxKey{src, dst, tag});
    if (it == mail_.end() || it->second.empty()) return false;
    if (it->second.front().ready > steady::now()) return false;  // in flight
    std::vector<std::byte> msg = std::move(it->second.front().bytes);
    it->second.pop_front();
    if (msg.size() > capacity)
      throw std::length_error("minimpi: message larger than recv buffer");
    std::memcpy(buf, msg.data(), msg.size());
    got = msg.size();
    return true;
  }

  std::size_t probe(int src, int dst, int tag) {
    std::unique_lock lk(mail_mutex_);
    const MailboxKey key{src, dst, tag};
    for (;;) {
      auto it = mail_.find(key);
      if (it != mail_.end() && !it->second.empty()) {
        const Message& front = it->second.front();
        if (front.ready <= steady::now()) return front.bytes.size();
        mail_cv_.wait_until(lk, front.ready);
      } else {
        mail_cv_.wait(lk);
      }
    }
  }

  void barrier() {
    std::unique_lock lk(barrier_mutex_);
    const std::uint64_t gen = barrier_gen_;
    if (++barrier_count_ == nranks_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      barrier_cv_.notify_all();
    } else {
      barrier_cv_.wait(lk, [&] { return barrier_gen_ != gen; });
    }
  }

  void set_slot(int rank, const void* data, std::size_t bytes) {
    auto& s = slots_[static_cast<std::size_t>(rank)];
    s.assign(static_cast<const std::byte*>(data),
             static_cast<const std::byte*>(data) + bytes);
  }
  const void* slot(int rank) const {
    return slots_[static_cast<std::size_t>(rank)].data();
  }

 private:
  int nranks_;
  steady::duration latency_{};
  std::mutex mail_mutex_;
  std::condition_variable mail_cv_;
  std::map<MailboxKey, std::deque<Message>> mail_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;

  std::vector<std::vector<std::byte>> slots_;
};

namespace detail {
void set_reduce_slot(World* w, int rank, const void* data,
                     std::size_t bytes) {
  w->set_slot(rank, data, bytes);
}
const void* get_reduce_slot(World* w, int rank) { return w->slot(rank); }
int world_size(const World* w) { return w->nranks(); }
}  // namespace detail

void Request::wait() {
  if (!state_ || state_->done) return;  // send/null request: complete
  prof::ScopedRegion region("mpi/wait_recv");
  state_->world->receive(state_->src, state_->dst, state_->tag, state_->buf,
                         state_->capacity);
  state_->done = true;
}

bool Request::test() {
  if (!state_ || state_->done) return true;
  std::size_t got = 0;
  if (state_->world->try_receive(state_->src, state_->dst, state_->tag,
                                 state_->buf, state_->capacity, got)) {
    state_->done = true;
  }
  return state_->done;
}

std::size_t wait_any(std::span<Request> reqs) {
  if (reqs.empty())
    throw std::invalid_argument("minimpi: wait_any on an empty request set");
  prof::ScopedRegion region("mpi/wait_any");
  for (;;) {
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i].test()) return i;
    // Nothing complete: back off briefly. The poll granularity only has to
    // be fine relative to the modeled link latencies (tens-hundreds of us).
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
}

int Comm::size() const noexcept { return world_->nranks(); }

Request Comm::isend_bytes(int dest, int tag, const void* data,
                          std::size_t bytes) {
  assert(dest >= 0 && dest < size());
  prof::ScopedRegion region("mpi/isend");
  world_->post(rank_, dest, tag, data, bytes);
  return Request{};  // buffered send: complete on return
}

Request Comm::irecv_bytes(int src, int tag, void* data, std::size_t bytes) {
  assert(src >= 0 && src < size());
  Request r;
  r.state_ = std::make_shared<Request::State>();
  r.state_->world = world_;
  r.state_->src = src;
  r.state_->dst = rank_;
  r.state_->tag = tag;
  r.state_->buf = data;
  r.state_->capacity = bytes;
  return r;
}

std::size_t Comm::probe_bytes(int src, int tag) {
  prof::ScopedRegion region("mpi/probe");
  return world_->probe(src, rank_, tag);
}

void Comm::barrier() {
  prof::ScopedRegion region("mpi/barrier");
  world_->barrier();
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, WorldOptions{}, fn);
}

void run(int nranks, const WorldOptions& opts,
         const std::function<void(Comm&)>& fn) {
  if (nranks < 1) throw std::invalid_argument("minimpi: nranks must be >= 1");
  World world(nranks, opts);
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex err_mutex;
  threads.reserve(static_cast<std::size_t>(nranks));
  // omp_set_num_threads (pk::initialize) sets the calling thread's team
  // size only; a fresh std::thread starts from the process default. Each
  // rank adopts the caller's, so pk::initialize(n) binds the ranks too.
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#endif
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
#ifdef _OPENMP
      omp_set_num_threads(omp_threads);
#endif
      Comm comm(&world, r);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

int CartTopology::neighbor(int rank, int axis, int dir) const noexcept {
  int c[3];
  coords_of(rank, c[0], c[1], c[2]);
  int v = c[axis] + dir;
  if (v < 0 || v >= dims[axis]) {
    if (!periodic[axis]) return -1;
    v = (v + dims[axis]) % dims[axis];
  }
  c[axis] = v;
  return rank_of(c[0], c[1], c[2]);
}

CartTopology make_cart(int nranks, bool periodic) {
  // Greedy near-cubic factorization: repeatedly peel the largest factor.
  CartTopology t;
  t.periodic[0] = t.periodic[1] = t.periodic[2] = periodic;
  int remaining = nranks;
  for (int d = 0; d < 3; ++d) {
    const int want = static_cast<int>(
        std::ceil(std::pow(static_cast<double>(remaining), 1.0 / (3 - d)) -
                  1e-9));
    int best = 1;
    for (int f = 1; f <= remaining; ++f)
      if (remaining % f == 0 && f <= want) best = f;
    // If nothing <= want divides remaining (other than 1), take the
    // smallest factor above want.
    if (best == 1) {
      for (int f = want; f <= remaining; ++f)
        if (remaining % f == 0) {
          best = f;
          break;
        }
    }
    t.dims[d] = best;
    remaining /= best;
  }
  t.dims[2] *= remaining;  // leftover (should be 1)
  return t;
}

}  // namespace vpic::mpi
