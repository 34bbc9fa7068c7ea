// C++20 coroutine support for rank programs.
//
// Every rank in either engine runs a `Task<>` coroutine. Tasks are lazy and
// chain via symmetric transfer, so `co_await subroutine(ctx)` composes
// collective phases without touching the event loop. The primitives here are
// engine-agnostic; the single concurrency contract is that a coroutine is
// only ever resumed from its owning execution context (the simulator's event
// loop, or the rank's own thread in the thread engine).
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/frame_arena.hpp"
#include "src/support/inline_fn.hpp"

namespace adapt::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  // Frame allocation routes through the thread-local FrameArena when one is
  // installed (sharded engine workers: size-class recycling + accounting for
  // the rank-state gauge) and the plain heap otherwise. Inherited by every
  // Task promise; operator new lookup finds it in the promise class scope.
  static void* operator new(std::size_t bytes) {
    return support::frame_alloc(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    support::frame_free(p, bytes);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// Lazy coroutine task. Move-only; owns its coroutine frame. Awaiting a task
/// starts it; its completion resumes the awaiter (symmetric transfer).
template <typename T>
class Task {
 public:
  using promise_type = detail::Promise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          ADAPT_CHECK(p.value.has_value()) << "task finished without a value";
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

/// Eager fire-and-forget coroutine used to drive a top-level Task. Its frame
/// self-destructs at completion; `frame` names it until then, so an owner
/// that knows the task never finished can destroy it (and the Task it runs).
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t bytes) {
      return support::frame_alloc(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      support::frame_free(p, bytes);
    }

    Detached get_return_object() noexcept {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  std::coroutine_handle<> frame;
};

/// Starts `t` immediately; invokes `on_done` (with the captured exception, or
/// nullptr on success) when the task finishes. The task's lifetime is managed
/// by the detached frame, which also holds `on_done`: a capture of up to 96
/// bytes stays inline, so starting a rank program allocates nothing beyond
/// the frames themselves.
inline Detached run_detached(
    Task<> t, InlineFunction<void(std::exception_ptr)> on_done) {
  std::exception_ptr ep;
  try {
    co_await std::move(t);
  } catch (...) {
    ep = std::current_exception();
  }
  on_done(ep);
}

/// The bridge between coroutines and the event-driven runtime: awaiting a
/// Suspend hands the coroutine's handle to `arm`, which stores it wherever the
/// completion will come from (an event callback, a request, a mailbox). The
/// handle must be resumed exactly once, from the owning execution context.
class Suspend {
 public:
  using Arm = std::function<void(std::coroutine_handle<>)>;
  explicit Suspend(Arm arm) : arm_(std::move(arm)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { arm_(h); }
  void await_resume() const noexcept {}

 private:
  Arm arm_;
};

/// One-shot event with any number of coroutine waiters. Firing resumes all
/// waiters inline; awaiting an already-fired trigger does not suspend.
class Trigger {
 public:
  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) h.resume();
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace adapt::sim
