// RAII setenv/unsetenv for tests of environment-driven defaults. Each ctest
// entry is its own process, so restoring the previous value is not needed:
// the destructor unsets the variable.
#pragma once

#include <cstdlib>

namespace pspl::test {

class ScopedEnv
{
public:
    ScopedEnv(const char* name, const char* value) : m_name(name)
    {
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv() { ::unsetenv(m_name); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* m_name;
};

} // namespace pspl::test
