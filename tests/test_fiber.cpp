// Unit tests for the fiber engine (custom x86-64 context switch).
#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace osim {
namespace {

TEST(Fiber, RunsToCompletionWithoutYield) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldReturnsControlToResumer) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::current()->yield();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, MultipleYields) {
  int count = 0;
  Fiber f([&] {
    for (int i = 0; i < 100; ++i) {
      ++count;
      Fiber::current()->yield();
    }
  });
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_EQ(count, i + 1);
  }
  EXPECT_FALSE(f.finished());
  f.resume();  // runs past the loop to completion
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavesTwoFibers) {
  std::string log;
  Fiber a([&] {
    for (int i = 0; i < 3; ++i) {
      log += 'a';
      Fiber::current()->yield();
    }
  });
  Fiber b([&] {
    for (int i = 0; i < 3; ++i) {
      log += 'b';
      Fiber::current()->yield();
    }
  });
  for (int i = 0; i < 4; ++i) {
    if (!a.finished()) a.resume();
    if (!b.finished()) b.resume();
  }
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(log, "ababab");
}

TEST(Fiber, CalleeSavedRegistersSurviveSwitches) {
  // Force values into callee-saved registers across yields via a loop whose
  // live state the compiler keeps in registers.
  long acc = 0;
  Fiber f([&] {
    long a = 1, b = 2, c = 3, d = 4, e = 5, g = 6;
    for (int i = 0; i < 50; ++i) {
      a += b;
      b += c;
      c += d;
      d += e;
      e += g;
      g += a;
      Fiber::current()->yield();
    }
    acc = a + b + c + d + e + g;
  });
  while (!f.finished()) f.resume();
  // Reference computation on the host stack.
  long a = 1, b = 2, c = 3, d = 4, e = 5, g = 6;
  for (int i = 0; i < 50; ++i) {
    a += b;
    b += c;
    c += d;
    d += e;
    e += g;
    g += a;
  }
  EXPECT_EQ(acc, a + b + c + d + e + g);
}

TEST(Fiber, DeepStackUsage) {
  // Recurse ~1000 frames inside the fiber to exercise the private stack.
  struct Rec {
    static long go(long n) { return n == 0 ? 0 : n + go(n - 1); }
  };
  long result = 0;
  Fiber f([&] { result = Rec::go(1000); }, 512 * 1024);
  f.resume();
  EXPECT_EQ(result, 1000L * 1001 / 2);
}

TEST(Fiber, ManyFibers) {
  std::vector<std::unique_ptr<Fiber>> fibers;
  int sum = 0;
  for (int i = 0; i < 64; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&sum, i] {
      Fiber::current()->yield();
      sum += i;
    }));
  }
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) EXPECT_TRUE(f->finished());
  EXPECT_EQ(sum, 64 * 63 / 2);
}

// ---- Direct handoff (switch_to) ----

// Helpers for ResumerStackIsCleanAfterHandoff: a throw that unwinds a frame
// with an instrumented local buffer, then a frame that reuses that stack.
[[gnu::noinline]] void throw_through_buffer() {
  volatile char buf[256];
  buf[0] = 1;
  if (buf[0] == 1) throw std::runtime_error("unwind");
}

[[gnu::noinline]] bool catch_on_this_stack() {
  try {
    throw_through_buffer();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

[[gnu::noinline]] int touch_stack() {
  volatile char buf[4096];
  for (auto& c : buf) c = 0;
  return buf[0];
}

TEST(Fiber, SwitchToChainYieldsBackToOriginalResumer) {
  // A -> B -> C by handoff; C's yield returns to the resume() that entered
  // A. Each fiber, resumed directly afterwards, picks up where it left off.
  std::string log;
  std::vector<Fiber*> current;
  Fiber c([&] {
    current.push_back(Fiber::current());
    log += 'c';
    Fiber::current()->yield();
    current.push_back(Fiber::current());
    log += 'C';
  });
  Fiber b([&] {
    current.push_back(Fiber::current());
    log += 'b';
    Fiber::current()->switch_to(c);
    current.push_back(Fiber::current());
    log += 'B';
  });
  Fiber a([&] {
    current.push_back(Fiber::current());
    log += 'a';
    Fiber::current()->switch_to(b);
    current.push_back(Fiber::current());
    log += 'A';
  });
  a.resume();
  EXPECT_EQ(log, "abc");
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_TRUE(b.started());
  EXPECT_TRUE(c.started());
  EXPECT_FALSE(a.finished() || b.finished() || c.finished());

  c.resume();
  EXPECT_TRUE(c.finished());
  b.resume();
  EXPECT_TRUE(b.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(log, "abcCBA");
  EXPECT_EQ(current, (std::vector<Fiber*>{&a, &b, &c, &c, &b, &a}));
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, SwitchToFiberSuspendedInSwitchTo) {
  // Ping-pong: A hands off to B, B hands back to A (suspended inside
  // switch_to), and A's yield still returns to the original resumer.
  std::string log;
  Fiber* a_ptr = nullptr;
  Fiber b([&] {
    log += 'b';
    EXPECT_EQ(Fiber::current(), &b);
    Fiber::current()->switch_to(*a_ptr);
    log += 'B';
  });
  Fiber a([&] {
    log += 'a';
    Fiber::current()->switch_to(b);
    EXPECT_EQ(Fiber::current(), a_ptr);
    log += 'A';
    Fiber::current()->yield();
    log += '!';
  });
  a_ptr = &a;
  a.resume();
  EXPECT_EQ(log, "abA");
  EXPECT_EQ(Fiber::current(), nullptr);
  a.resume();
  b.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(log, "abA!B");
}

TEST(Fiber, ExceptionCaughtInsideHandedOffFiber) {
  // Throwing on a stack entered by handoff exercises the sanitizer's
  // stack-bounds bookkeeping for that stack (the ASan preset runs this).
  std::vector<std::string> caught;
  Fiber b([&] {
    try {
      throw std::runtime_error("first");
    } catch (const std::runtime_error& e) {
      caught.emplace_back(e.what());
    }
    Fiber::current()->yield();
    try {
      throw std::runtime_error("second");
    } catch (const std::runtime_error& e) {
      caught.emplace_back(e.what());
    }
  });
  Fiber a([&] {
    Fiber::current()->switch_to(b);
    try {
      throw std::runtime_error("third");
    } catch (const std::runtime_error& e) {
      caught.emplace_back(e.what());
    }
  });
  a.resume();
  EXPECT_EQ(caught, (std::vector<std::string>{"first"}));
  b.resume();
  EXPECT_TRUE(b.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(caught, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Fiber, ResumerStackIsCleanAfterHandoff) {
  // A fiber entered by handoff must switch back to the resumer's stack, and
  // say so to ASan: with the previous fiber's stack bounds recorded instead,
  // the resumer's next throw skips ASan's stack unpoisoning and the reused
  // stack reports stack-buffer-underflow (asan-ubsan preset).
  Fiber c([] { Fiber::current()->yield(); });
  Fiber b([&] { Fiber::current()->switch_to(c); });
  Fiber a([&] { Fiber::current()->switch_to(b); });
  a.resume();
  EXPECT_TRUE(catch_on_this_stack());
  EXPECT_EQ(touch_stack(), 0);
  c.resume();
  b.resume();
  a.resume();
  EXPECT_TRUE(catch_on_this_stack());
  EXPECT_EQ(touch_stack(), 0);
}

TEST(Fiber, HandedOffFiberExitReturnsToResumer) {
  int x = 0;
  Fiber b([&] { x = 1; });
  Fiber a([&] {
    Fiber::current()->switch_to(b);
    x = 2;
  });
  a.resume();  // a hands off to b, and b's exit comes back here
  EXPECT_EQ(x, 1);
  EXPECT_TRUE(b.finished());
  EXPECT_FALSE(a.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(x, 2);
}

}  // namespace
}  // namespace osim
