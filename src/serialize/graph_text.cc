#include "serialize/graph_text.h"

#include <charconv>
#include <limits>
#include <vector>

#include "serialize/text_reader.h"
#include "support/error.h"
#include "support/hash.h"

namespace smartmem::serialize {

namespace {

void
requireWritable(const std::string &name, const char *what)
{
    SM_REQUIRE(name.find('\n') == std::string::npos,
               std::string(what) + " contains a newline and cannot be "
               "serialized: '" + name + "'");
}

/** `v`'s digits, appended: the digits std::to_string and ostream
 *  write. */
void
appendInt(std::string &out, std::int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** `sep`, then `v` -- a space-separated list element. */
void
appendInt(std::string &out, char sep, std::int64_t v)
{
    out += sep;
    appendInt(out, v);
}

/** Attribute bytes of the signature: "{key=v, key=[a,b], key=[]}",
 *  keys sorted, one-element lists written bare. */
void
signAttrs(Fnv1a &f, const ir::Attrs &attrs)
{
    f.bytes("{");
    bool first = true;
    for (const auto &[key, vals] : attrs.entries()) {
        if (!first)
            f.bytes(", ");
        first = false;
        f.bytes(key);
        f.bytes("=");
        if (vals.size() == 1) {
            f.decimal(vals[0]);
            continue;
        }
        f.bytes("[");
        for (std::size_t i = 0; i < vals.size(); ++i) {
            if (i > 0)
                f.bytes(",");
            f.decimal(vals[i]);
        }
        f.bytes("]");
    }
    f.bytes("}");
    f.endField();
}

/** Shape bytes of the signature: "[2, 256, 4]", "[]" for rank 0. */
void
signShape(Fnv1a &f, const ir::Shape &shape)
{
    f.bytes("[");
    for (std::size_t i = 0; i < shape.dims().size(); ++i) {
        if (i > 0)
            f.bytes(", ");
        f.decimal(shape.dims()[i]);
    }
    f.bytes("]");
    f.endField();
}

} // namespace

std::string
graphSignature(const ir::Graph &graph)
{
    Fnv1a f;
    f.feed(static_cast<std::int64_t>(graph.nodes().size()));
    f.feed(static_cast<std::int64_t>(graph.values().size()));
    for (const ir::Node &n : graph.nodes()) {
        f.feed(n.id);
        f.feed(ir::opInfo(n.kind).name);
        f.feed(n.name);
        for (ir::ValueId v : n.inputs)
            f.feed(v);
        f.feed(n.output);
        signAttrs(f, n.attrs);
    }
    for (const ir::Value &v : graph.values()) {
        f.feed(v.id);
        f.feed(v.name);
        signShape(f, v.shape);
        f.feed(static_cast<std::int64_t>(v.dtype));
        f.feed(v.producer);
    }
    for (ir::ValueId v : graph.inputIds())
        f.feed(v);
    for (ir::ValueId v : graph.outputIds())
        f.feed(v);
    return f.hex();
}

std::string
serializeGraph(const ir::Graph &graph)
{
    std::string out;
    // "<label><count> <id>...\n"
    auto idList = [&out](const char *label,
                         const std::vector<ir::ValueId> &ids) {
        out += label;
        appendInt(out, static_cast<std::int64_t>(ids.size()));
        for (ir::ValueId v : ids)
            appendInt(out, ' ', v);
        out += '\n';
    };

    out += "smartmem-graph v";
    appendInt(out, kGraphFormatVersion);
    out += "\nvalues ";
    appendInt(out, static_cast<std::int64_t>(graph.values().size()));
    out += '\n';
    for (const ir::Value &v : graph.values()) {
        requireWritable(v.name, "value name");
        out += "value ";
        appendInt(out, v.id);
        out += ' ';
        out += ir::dtypeName(v.dtype);
        // Shapes are single space-free tokens: "[1,64,56,56]", "[]"
        // for rank 0.  Shape::parse() accepts this compact form.
        out += " [";
        for (std::size_t i = 0; i < v.shape.dims().size(); ++i) {
            if (i > 0)
                out += ',';
            appendInt(out, v.shape.dims()[i]);
        }
        out += ']';
        if (!v.name.empty()) {
            out += ' ';
            out += v.name;
        }
        out += '\n';
    }

    out += "nodes ";
    appendInt(out, static_cast<std::int64_t>(graph.nodes().size()));
    out += '\n';
    for (const ir::Node &n : graph.nodes()) {
        requireWritable(n.name, "node name");
        out += "node ";
        appendInt(out, n.id);
        out += ' ';
        out += ir::opInfo(n.kind).name;
        appendInt(out, ' ', n.output);
        out += "\nname";
        if (!n.name.empty()) {
            out += ' ';
            out += n.name;
        }
        out += '\n';
        idList("in ", n.inputs);
        out += "attrs ";
        appendInt(out, static_cast<std::int64_t>(n.attrs.entries().size()));
        out += '\n';
        for (const auto &[key, vals] : n.attrs.entries()) {
            SM_REQUIRE(!key.empty() &&
                       key.find(' ') == std::string::npos &&
                       key.find('\n') == std::string::npos,
                       "attr key not serializable: '" + key + "'");
            out += "attr ";
            out += key;
            appendInt(out, ' ', static_cast<std::int64_t>(vals.size()));
            for (std::int64_t v : vals)
                appendInt(out, ' ', v);
            out += '\n';
        }
    }

    idList("inputs ", graph.inputIds());
    idList("outputs ", graph.outputIds());
    out += "end\n";
    return out;
}

ir::Graph
parseGraph(const std::string &text)
{
    constexpr std::int64_t kMaxCount = std::int64_t{1} << 30;
    constexpr std::int64_t kMinI64 =
        std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMaxI64 =
        std::numeric_limits<std::int64_t>::max();

    LineReader r(text, "graph");

    const std::string header = r.next();
    if (header !=
        "smartmem-graph v" + std::to_string(kGraphFormatVersion))
        r.fail("unsupported graph format: '" + header + "'");

    ir::GraphParts parts;

    const auto n_values =
        r.asInt(r.fieldsOf("values", 1)[0], 0, kMaxCount);
    parts.values.reserve(static_cast<std::size_t>(n_values));
    for (std::int64_t i = 0; i < n_values; ++i) {
        // "value <id> <dtype> <shape> <name...>": three space-split
        // tokens, then the name takes the rest of the line (it may be
        // empty or contain spaces).
        std::string rest = r.restOf("value");
        std::size_t pos = 0;
        auto token = [&]() {
            std::size_t stop = rest.find(' ', pos);
            if (stop == std::string::npos)
                stop = rest.size();
            if (stop == pos)
                r.fail("empty field in 'value' line");
            std::string t = rest.substr(pos, stop - pos);
            pos = stop == rest.size() ? stop : stop + 1;
            return t;
        };
        ir::Value v;
        v.id = static_cast<ir::ValueId>(
            r.asInt(token(), 0, kMaxCount));
        const std::string dtype = token();
        const std::string shape = token();
        try {
            v.dtype = ir::dtypeFromName(dtype);
            v.shape = ir::Shape::parse(shape);
        } catch (const FatalError &err) {
            r.fail(err.what());
        }
        v.name = pos < rest.size() ? rest.substr(pos) : "";
        v.producer = ir::invalidNode;
        parts.values.push_back(std::move(v));
    }

    const auto n_nodes =
        r.asInt(r.fieldsOf("nodes", 1)[0], 0, kMaxCount);
    parts.nodes.reserve(static_cast<std::size_t>(n_nodes));
    for (std::int64_t i = 0; i < n_nodes; ++i) {
        const auto nf = r.fieldsOf("node", 3);
        ir::Node n;
        n.id = static_cast<ir::NodeId>(r.asInt(nf[0], 0, kMaxCount));
        try {
            n.kind = ir::opKindFromName(nf[1]);
        } catch (const FatalError &err) {
            r.fail(err.what());
        }
        n.output = static_cast<ir::ValueId>(
            r.asInt(nf[2], 0, kMaxCount));
        n.name = r.restOf("name");

        const auto ins = r.fieldsOf("in", -1);
        if (ins.empty())
            r.fail("'in' expects a count");
        const auto n_in = r.asInt(ins[0], 0, kMaxCount);
        if (static_cast<std::int64_t>(ins.size()) != n_in + 1)
            r.fail("'in' count disagrees with the id list");
        for (std::int64_t j = 0; j < n_in; ++j) {
            n.inputs.push_back(static_cast<ir::ValueId>(
                r.asInt(ins[static_cast<std::size_t>(j + 1)], 0,
                        kMaxCount)));
        }

        const auto n_attrs =
            r.asInt(r.fieldsOf("attrs", 1)[0], 0, kMaxCount);
        for (std::int64_t j = 0; j < n_attrs; ++j) {
            const auto af = r.fieldsOf("attr", -1);
            if (af.size() < 2)
                r.fail("'attr' expects a key and a count");
            const auto n_vals = r.asInt(af[1], 0, kMaxCount);
            if (static_cast<std::int64_t>(af.size()) != n_vals + 2)
                r.fail("'attr' count disagrees with the value list");
            std::vector<std::int64_t> vals;
            vals.reserve(static_cast<std::size_t>(n_vals));
            for (std::int64_t k = 0; k < n_vals; ++k)
                vals.push_back(r.asInt(
                    af[static_cast<std::size_t>(k + 2)], kMinI64,
                    kMaxI64));
            if (n.attrs.has(af[0]))
                r.fail("duplicate attr key '" + af[0] + "'");
            n.attrs.set(af[0], std::move(vals));
        }
        parts.nodes.push_back(std::move(n));
    }

    // Derive value producers from node outputs; validateGraphParts
    // flags conflicts (two nodes claiming one value) and orphans.
    for (const ir::Node &n : parts.nodes) {
        if (n.output >= 0 &&
            n.output < static_cast<ir::ValueId>(parts.values.size()))
            parts.values[static_cast<std::size_t>(n.output)].producer =
                n.id;
    }

    for (const char *section : {"inputs", "outputs"}) {
        const auto f = r.fieldsOf(section, -1);
        if (f.empty())
            r.fail(std::string("'") + section + "' expects a count");
        const auto count = r.asInt(f[0], 0, kMaxCount);
        if (static_cast<std::int64_t>(f.size()) != count + 1)
            r.fail(std::string("'") + section +
                   "' count disagrees with the id list");
        auto &dst = section[0] == 'i' ? parts.inputs : parts.outputs;
        for (std::int64_t j = 0; j < count; ++j)
            dst.push_back(static_cast<ir::ValueId>(
                r.asInt(f[static_cast<std::size_t>(j + 1)], 0,
                        kMaxCount)));
    }

    if (r.next() != "end")
        r.fail("expected 'end'");
    if (!r.atEnd())
        r.fail("trailing text after 'end'");

    // Structural validation; throws with one diagnostic per violation.
    return ir::makeGraph(std::move(parts));
}

} // namespace smartmem::serialize
