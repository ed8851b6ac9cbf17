// Names a thread so per-thread tools (top -H, pidstat -t,
// /proc/<pid>/task/<tid>/comm) can attribute CPU to the library's loops.
#pragma once

#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace udtr {

// Linux keeps at most 15 characters of a thread name; longer names are
// truncated to fit rather than rejected.  Called by the thread's creator
// right after starting it, so the name is in place before the creator
// returns.  A no-op off Linux.
inline void set_thread_name(std::thread& t, const std::string& name) {
#if defined(__linux__)
  pthread_setname_np(t.native_handle(), name.substr(0, 15).c_str());
#else
  (void)t;
  (void)name;
#endif
}

}  // namespace udtr
