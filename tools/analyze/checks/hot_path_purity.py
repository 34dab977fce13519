"""hot-path-purity: GIPPR_HOT functions stay allocation- and
side-channel-free, transitively.

The fastpath SoA kernels, including the shared-LLC instantiation,
are the throughput budget of the whole system (ROADMAP's 2x GA
target); one stray heap allocation, virtual dispatch, lock, throw, or
stream write in them costs more than any micro-optimization saves and
is invisible to tests that only compare outcomes.  Functions annotated
GIPPR_HOT (src/util/hot.hh) and everything they transitively call
inside the repo must be free of:

  * heap allocation — new/delete, malloc-family, make_unique/shared,
    growing containers (push_back/resize/...), constructing
    std::string/std::vector/std::ostringstream locals;
  * virtual dispatch — member calls whose name is only ever declared
    virtual in the repo;
  * exceptions — throw / try;
  * locks — mutexes, lock_guard/unique_lock/scoped_lock, atomics are
    fine;
  * I/O — stdio, iostreams, syscall wrappers.

GIPPR_CHECK / GIPPR_DCHECK arguments are exempt: they compile out in
release builds, and when they do fire the process is aborting anyway.
"""

from . import common

CHECK_ID = "hot-path-purity"
DESCRIPTION = ("GIPPR_HOT functions must be transitively free of "
               "allocation, virtual dispatch, exceptions, locks, I/O")

_ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "free", "strdup", "strndup",
    "posix_memalign", "aligned_alloc", "make_unique", "make_shared",
    "to_string", "stoi", "stoul", "stoull", "stod",
}
_ALLOC_MEMBERS = {
    "push_back", "emplace_back", "pop_back", "resize", "reserve",
    "insert", "emplace", "emplace_hint", "append", "assign",
    "shrink_to_fit", "push_front", "emplace_front",
}
_ALLOC_TYPES = {
    "vector", "string", "deque", "list", "map", "set",
    "unordered_map", "unordered_set", "multimap", "multiset",
    "ostringstream", "stringstream", "istringstream", "basic_string",
}
_LOCK_NAMES = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable",
}
_LOCK_CALLS = {
    "pthread_mutex_lock", "pthread_mutex_unlock", "pthread_rwlock_rdlock",
    "pthread_rwlock_wrlock",
}
_IO_CALLS = {
    "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf",
    "puts", "putchar", "putc", "fputc", "fputs", "fwrite", "fread",
    "fopen", "fclose", "fflush", "fseek", "ftell", "fscanf", "scanf",
    "getline", "getchar",
}
_IO_SYSCALLS = {"write", "read", "open", "close", "pread", "pwrite",
                "fsync", "fdatasync"}
_IO_NAMES = {"cout", "cerr", "clog", "cin", "ofstream", "ifstream",
             "fstream", "FILE"}


def violations_in_body(fn, virtual_only):
    """(line, why) purity violations in @p fn's body tokens."""
    toks = fn.body
    out = []
    keep = common.outside_check_macros(toks)
    keepset = set(keep)
    for i in keep:
        t = toks[i]
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        if t.kind != "id":
            continue
        if t.text in ("new", "delete"):
            out.append((t.line, f"heap {t.text}"))
        elif t.text in ("throw", "try"):
            out.append((t.line, f"exceptions ({t.text})"))
        elif t.text in _ALLOC_TYPES and prev != "const" \
                and nxt in ("<", "(", "{"):
            # Constructing an allocating type (params land in the
            # head, so a body mention with <...> / (...) is a local
            # or a temporary).
            out.append((t.line,
                        f"allocating type std::{t.text} constructed"))
        elif t.text in _LOCK_NAMES:
            out.append((t.line, f"lock ({t.text})"))
        elif nxt == "(" or (nxt == "<" and t.text in _ALLOC_CALLS):
            if t.text in _ALLOC_CALLS:
                out.append((t.line, f"allocation ({t.text})"))
            elif t.text in _LOCK_CALLS:
                out.append((t.line, f"lock ({t.text})"))
            elif t.text in _IO_CALLS:
                out.append((t.line, f"I/O ({t.text})"))
            elif t.text in _IO_SYSCALLS and prev not in (".", "->"):
                out.append((t.line, f"I/O syscall ({t.text})"))
            elif prev in (".", "->") and t.text in _ALLOC_MEMBERS:
                out.append((t.line,
                            f"growing container call (.{t.text})"))
            elif prev in (".", "->") and t.text == "lock":
                out.append((t.line, "lock (.lock())"))
            elif prev in (".", "->") and t.text in virtual_only \
                    and i - 2 in keepset \
                    and toks[i - 2].text != "this":
                out.append((t.line,
                            f"virtual dispatch (.{t.text}())"))
        elif t.text in _IO_NAMES:
            out.append((t.line, f"I/O ({t.text})"))
    return out


def run(model, config):
    from . import Finding
    findings = []
    hot = model.hot_symbols()
    if not hot:
        if config.get("require_hot", False):
            findings.append(Finding(
                CHECK_ID, config.get("anchor_file", "src/util/hot.hh"),
                1, "no GIPPR_HOT annotations found anywhere; the hot "
                   "kernels must be annotated"))
        return findings
    roots = common.defs_for_symbols(model, hot)
    virtual_only = model.virtual_only_names()
    for fn in common.reachable(model, roots):
        root_note = "" if fn.qname in hot or fn.name in hot \
            else " (reached from a GIPPR_HOT function)"
        for line, why in violations_in_body(fn, virtual_only):
            findings.append(Finding(
                CHECK_ID, fn.file, line,
                f"{fn.qname}{root_note}: {why} on the hot path"))
    return findings
