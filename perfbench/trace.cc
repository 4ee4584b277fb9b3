#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

int
Tracer::begin(std::string name, std::int64_t calls)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query_;
    s.calls = calls;
    s.start_us = nowUs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end_us = nowUs();
    open_.pop_back();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    const std::unique_ptr<std::FILE, int (*)(std::FILE *)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out.get());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names are library identifiers (no quotes or backslashes).
        std::fprintf(out.get(),
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"query\": %lld, "
                     "\"calls\": %lld}}",
                     i == 0 ? "" : ",\n", s.name.c_str(), s.start_us,
                     s.durationUs(), i, s.parent,
                     static_cast<long long>(s.query),
                     static_cast<long long>(s.calls));
    }
    std::fputs("\n]}\n", out.get());
    return std::ferror(out.get()) == 0;
}

} // namespace perfbench
