#include <cstdio>

#include "bench.hh"

namespace perfbench
{

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

int32_t
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.op = currentOp;
    s.startNs = hostNs();
    log.push_back(s);
    int32_t index = static_cast<int32_t>(log.size() - 1);
    stack.push_back(index);
    return index;
}

void
SpanLog::close(int32_t index)
{
    log[static_cast<size_t>(index)].endNs = hostNs();
    /* Spans close in LIFO order (ScopedSpan). */
    if (!stack.empty() && stack.back() == index)
        stack.pop_back();
}

bool
SpanLog::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    int64_t origin = log.empty() ? 0 : log.front().startNs;
    std::fprintf(f, "{\"format\":\"perfbench-spans-v1\","
                    "\"columns\":[\"op\",\"parent\",\"name\","
                    "\"start_ns\",\"end_ns\"]}\n");
    for (const Span &s : log)
        std::fprintf(f, "[%llu,%d,\"%s\",%lld,%lld]\n",
                     static_cast<unsigned long long>(s.op), s.parent,
                     s.name,
                     static_cast<long long>(s.startNs - origin),
                     static_cast<long long>(s.endNs - origin));
    return std::fclose(f) == 0;
}

} // namespace perfbench
