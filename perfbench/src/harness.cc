#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

#include "support/rng.h"

namespace perfbench {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double ratePerS, double seconds,
                int models, int salts)
{
    const auto n = static_cast<std::size_t>(std::llround(ratePerS * seconds));
    smartmem::Rng rng(seed);
    std::vector<double> times(n);
    for (double &t : times)
        t = rng.uniformReal() * seconds * 1000.0;
    std::sort(times.begin(), times.end());
    std::vector<Arrival> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].atMs = times[i];
        out[i].model = static_cast<int>(
            rng.pickIndex(static_cast<std::size_t>(models)));
        out[i].salt = static_cast<int>(
            rng.pickIndex(static_cast<std::size_t>(salts)));
    }
    return out;
}

double
Tracer::usSince(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int
Tracer::begin(const std::string &name, std::int64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = usSince(Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    spans_[static_cast<std::size_t>(span)].endUs = usSince(Clock::now());
    auto it = std::find(open_.begin(), open_.end(), span);
    open_.erase(it, open_.end());
}

int
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::int64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.startUs = usSince(start);
    s.endUs = usSince(end);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double>
Tracer::selfTimesMs() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[static_cast<std::size_t>(s.parent)];
        const double a = std::max(s.startUs, p.startUs);
        const double b = std::min(s.endUs, p.endUs);
        if (b > a)
            kids[static_cast<std::size_t>(s.parent)].push_back({a, b});
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curA = 0, curB = -1;
        for (const auto &[a, b] : iv) {
            if (a > curB) {
                if (curB > curA)
                    covered += curB - curA;
                curA = a;
                curB = b;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (curB > curA)
            covered += curB - curA;
        self[i] = (spans_[i].endUs - spans_[i].startUs - covered) / 1000.0;
    }
    return self;
}

std::vector<double>
Tracer::selfMsPerOp(const std::string &name) const
{
    const std::vector<double> self = selfTimesMs();
    std::map<std::int64_t, double> perOp;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            perOp[spans_[i].op] += self[i];
    }
    std::vector<double> out;
    out.reserve(perOp.size());
    for (const auto &kv : perOp)
        out.push_back(kv.second);
    return out;
}

std::string
Tracer::chromeJson(const std::map<std::string, std::string> &metadata) const
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"metadata\": {";
    bool first = true;
    for (const auto &[k, v] : metadata) {
        out += (first ? "" : ", ") + jsonString(k) + ": " + jsonString(v);
        first = false;
    }
    out += "}, \"traceEvents\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out += "{\"name\": " + jsonString(s.name);
        std::snprintf(buf, sizeof(buf),
                      ", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": "
                      "%lld, \"span\": %zu, \"parent\": %d}}",
                      static_cast<long long>(s.op), s.startUs,
                      s.endUs - s.startUs, static_cast<long long>(s.op), i,
                      s.parent);
        out += buf;
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
resultJson(Tally tally, const std::map<std::string, double> &values)
{
    std::string body;
    char buf[64];
    for (const auto &[name, v] : values) {
        if (!std::isfinite(v))
            tally.fail();
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        body += (body.empty() ? "" : ", ") + jsonString(name) + ": " + buf;
    }
    std::string out = "{\"correct\": ";
    out += tally.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.reportedFailed());
    return out + ", \"values\": {" + body + "}}";
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace perfbench
