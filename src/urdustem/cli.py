"""Command-line front end.

Subcommands::

    urdustem stem  --rules FILE [INPUT]      stem text, TSV to stdout
    urdustem eval  --rules FILE --gold FILE  score against a gold corpus
    urdustem rules {validate,list} --rules FILE
    urdustem gen   --lexicon FILE            synthesize a gold corpus

Exit codes: 0 success, 1 validation failure (bad rule file), 2
input/alignment error or a malformed flag value (argparse's usage line,
before any file is read), 141 (128 + SIGPIPE, with nothing on stderr) when
the reader of stdout closes it early, whatever the size of the write it
cuts short.  Every error is raised before the first byte of output, so
stdout stays empty unless the exit code is 0 or 141.  Output (all of it
through ``_write``) and error messages are UTF-8 whatever the locale.

``stem`` holds its input as bytes, not as text, and processes it in
blocks of ``_INPUT_BLOCK`` bytes or more, cut where no word can span:
after an LF with ``--pretokenized``, after any character that
``str.split`` splits at otherwise.  A first pass decodes each block and
checks it, a second normalizes, tokenizes and stems it, keeping one
output line per distinct word across blocks, and writes the block's
output in one write.  So its memory follows the input's bytes and
vocabulary, not its text or lines; only a run of text with no whitespace
at all stays one block, however long.

A ``--json`` line is ``{"word": ``, the escaped word, the text from
``, "prefix"`` up to the stem, the escaped stem, and the text from
``, "suffix"`` to the LF.  Those two stretches of text depend only on the
result's prefix, suffix, ``applied`` and exception flag, so they are
escaped once per such firing sequence and kept, for one ``stem`` run, in
a dict keyed by it.

Each command runs with the cyclic garbage collector paused.  The
commands make no reference cycles, so reference counting frees all they
drop, and the collector would only re-scan what they keep alive: for
``eval``, a tuple per gold entry, per result and per scored pair, scanned
dozens of times per run for no garbage.

Start-up imports only what ``stem`` needs: ``eval`` and ``gen`` import
``evaluation`` and ``morphology`` when they run, and ``stem --json``
imports its string escaper from ``json.encoder``.
"""

import argparse
import codecs
import gc
import os
import re
import sys

import urdustem
from urdustem import corpus
from urdustem.rules import RuleParseError, RuleSet, parse_rule_file, serialize_rule_set
from urdustem.stemmer import (
    MAX_PASSES,
    PREFIX_FIRST,
    SUFFIX_FIRST,
    StemConfig,
    StemError,
    StemResult,
    shown_affix,
    stem_batch,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE stopped

# Input bytes per block, rounded up to just after an LF with --pretokenized
# and just after any character in _WHITESPACE otherwise.  Neither cut splits
# a word: in UTF-8 each of these characters starts a new sequence, so its
# bytes never occur inside another character's; each is a starter that
# composes with nothing, and only U+2000 and U+2001 change under NFC, to one
# character each (so normalize acts within blocks); and the --pretokenized
# line split cuts at LF as tokenize cuts at all of them.  Each block's
# output is one write.
_INPUT_BLOCK = 1 << 14

# Every character that str.split() splits at, which tokenize cuts words at,
# and a bytes pattern for their UTF-8 encodings (compiled on first use, so
# that no other command pays for it).
_WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
               "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_WHITESPACE_UTF8 = b"|".join(re.escape(c.encode("utf-8")) for c in _WHITESPACE)

# A --json line's strings go through json.encoder.encode_basestring (imported
# here, so that only --json pays for it), the escaper that
# JSONEncoder(ensure_ascii=False) applies to strings, so the bytes match it.
# The module docstring says how a line is put together.
def _json_renderer():
    """A function from a :class:`StemResult` to its ``--json`` line, with its own fragment dict."""
    from json.encoder import encode_basestring as q

    fragments: dict[tuple, tuple[str, str]] = {}

    def render(r: StemResult) -> str:
        key = r[2:]
        parts = fragments.get(key)
        if parts is None:
            prefix, suffix, applied, exception = key
            parts = fragments[key] = (
                f', "prefix": {"null" if prefix is None else q(prefix)}, "stem": ',
                f', "suffix": {"null" if suffix is None else q(suffix)}, '
                f'"applied": [{", ".join(map(q, applied))}], "exception": {"true" if exception else "false"}}}\n')
        return f'{{"word": {q(r[0])}{parts[0]}{q(r[1])}{parts[1]}'

    return render


def _tsv_line(r: StemResult) -> str:
    """The TSV line of *r*, each affix as ``shown_affix`` gives it."""
    word, stem, prefix, suffix, _, _ = r
    return f"{word}\t{shown_affix(prefix)}\t{stem}\t{shown_affix(suffix)}\n"


# The file arguments of every command.  Stdin ("-") can be read only once,
# so at most one of them may name it.
_FILE_ARGS = ("input", "--rules", "--gold", "--lexicon")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write(text: str) -> None:
    """Write *text* to stdout as UTF-8, every byte of it.

    ``TextIOWrapper.write`` ignores the short count that ``buffer.write``
    returns when the reader closes the pipe partway through; here the next
    call raises BrokenPipeError, so ``main`` exits 141.  A text sink
    without ``buffer``, such as a StringIO, takes the text as it is.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    while data:
        data = data[buffer.write(data):]


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes", "on"):
        return True
    if value.lower() in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _read_bytes(path: str) -> bytes:
    try:
        if path == "-":
            return sys.stdin.buffer.read()
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", EXIT_INPUT) from exc


def _decode(path: str, data, start: int = 0) -> str:
    """*data*, which begins at byte *start* of the file at *path*, as text."""
    # Strict, not "utf-8-sig", so that an error offset counts from the first
    # byte; cmd_stem and corpus.data_lines each drop the one leading BOM.
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: invalid UTF-8 at byte {start + exc.start}", EXIT_INPUT) from exc


def _read_data(path: str, read, error: type[Exception], code: int = EXIT_INPUT):
    """``read(text)`` of the data file at *path*; its *error* exits *code*, naming the path."""
    try:
        return read(_decode(path, _read_bytes(path)))
    except error as exc:
        raise CliError(f"{path}: {exc}", code) from exc


def _load_rules(path: str) -> RuleSet:
    return _read_data(path, parse_rule_file, RuleParseError, EXIT_VALIDATION)


def _input_blocks(path: str, data: bytes, pretokenized: bool):
    """The text of each block of *data*, the bytes of the file at *path*.

    A block is the shortest run of at least ``_INPUT_BLOCK`` bytes that ends
    just after an LF if *pretokenized*, else just after the UTF-8 bytes of a
    character in ``_WHITESPACE``, or the rest of the input; the one BOM at
    byte 0 is dropped.
    """
    cut = re.compile(rb"\n" if pretokenized else _WHITESPACE_UTF8)
    with memoryview(data) as view:
        start = 0
        while start < len(data):
            # From 3 bytes back, the longest encoding in _WHITESPACE, so that
            # a cut character that straddles the block's minimum is found.
            m = cut.search(data, start + _INPUT_BLOCK - 3)
            while m and m.end() < start + _INPUT_BLOCK:
                m = cut.search(data, m.end())
            end = m.end() if m else len(data)
            text = _decode(path, view[start:end], start)
            yield text.removeprefix("\ufeff") if start == 0 else text
            start = end


def cmd_stem(args) -> int:
    rs = _load_rules(args.rules)
    cfg = StemConfig(args.suffix_passes, args.prefix_passes, args.order)
    data = _read_bytes(args.input)
    # Pass 1 keeps nothing: it raises every input error before the first write.
    lineno = 1  # of the block's first line
    for text in _input_blocks(args.input, data, args.pretokenized):
        if args.pretokenized and ("\t" in text or "\r" in text):
            words = map(str.strip, corpus.normalize(text, args.strip_diacritics).split("\n"))
            for i, word in enumerate(words, start=lineno):
                if "\t" in word or "\r" in word:
                    raise CliError(f"{args.input}: line {i}: tab or CR inside a word", EXIT_INPUT)
        lineno += text.count("\n")

    render = _json_renderer() if args.json else _tsv_line
    lines: dict[str, str] = {}  # each distinct word's output line, kept across blocks
    chunk_words: dict[str, list[str]] = {}
    for text in _input_blocks(args.input, data, args.pretokenized):
        text = corpus.normalize(text, args.strip_diacritics)
        words = ([w for w in map(str.strip, text.split("\n")) if w] if args.pretokenized
                 else corpus.tokenize(text, chunk_words))
        new = [w for w in dict.fromkeys(words) if w not in lines]
        try:
            results = stem_batch(new, rs, cfg)
        except StemError as exc:
            raise CliError(str(exc), EXIT_INPUT) from exc
        lines.update(zip(new, map(render, results)))
        _write("".join(map(lines.__getitem__, words)))
    return EXIT_OK


def cmd_eval(args) -> int:
    from urdustem import evaluation

    rs = _load_rules(args.rules)
    cfg = StemConfig(args.suffix_passes, args.prefix_passes, args.order)
    gold = _read_data(args.gold, lambda t: evaluation.parse_gold_file(t, args.strip_diacritics),
                      evaluation.GoldFileError)
    try:
        results = stem_batch([g.word for g in gold], rs, cfg)
        report = evaluation.evaluate(results, gold, stem_only=args.stem_only)
    except (StemError, evaluation.EvalError) as exc:
        raise CliError(str(exc), EXIT_INPUT) from exc

    if args.json:
        _write(evaluation.report_json(report))
    else:
        _write(evaluation.summarize(report) + "\n" + evaluation.report_kv(report))
    return EXIT_OK


def cmd_rules(args) -> int:
    rs = _load_rules(args.rules)
    if args.action == "validate":
        _write(f"ok: {rs.suffix_count} suffixes, {rs.prefix_count} prefixes, "
               f"{len(rs.exceptions)} exceptions\n")
        return EXIT_OK
    _write(serialize_rule_set(rs))
    return EXIT_OK


def cmd_gen(args) -> int:
    from urdustem import evaluation, morphology

    lexicon = _read_data(args.lexicon, morphology.parse_lexicon_file, morphology.ParadigmError)
    gold = morphology.generate_gold(lexicon)
    if any(isinstance(item, morphology.VerbRoot) for item in lexicon):
        _write("# provenance: verb forms are pattern-generalized from a single exemplar\n")
    _write(evaluation.gold_to_tsv(gold))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Python 3.11's argparse drops the value of --flag=-- unchecked, leaving []
    # (or --strip-diacritics's const, true), so check that value as any other.
    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _add_stem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strip-diacritics", type=_parse_bool, nargs="?", const=True, default=True,
                   metavar="BOOL")
    p.add_argument("--suffix-passes", type=int, choices=range(MAX_PASSES + 1), default=1, metavar="N")
    p.add_argument("--prefix-passes", type=int, choices=range(MAX_PASSES + 1), default=1, metavar="N")
    p.add_argument("--order", choices=(SUFFIX_FIRST, PREFIX_FIRST), default=SUFFIX_FIRST)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urdustem", description=urdustem.__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stem", help="stem text and print word/prefix/stem/suffix TSV")
    p.add_argument("input", nargs="?", default="-", help="input text file, or - for stdin")
    p.add_argument("--rules", required=True, metavar="PATH")
    p.add_argument("--pretokenized", action="store_true",
                   help="treat each input line as one word token (no tokenization)")
    p.add_argument("--json", action="store_true")
    _add_stem_flags(p)
    p.set_defaults(func=cmd_stem)

    p = sub.add_parser("eval", help="stem a gold corpus's words and score the output")
    p.add_argument("--rules", required=True, metavar="PATH")
    p.add_argument("--gold", required=True, metavar="PATH")
    p.add_argument("--stem-only", action="store_true",
                   help="count stem-only matches as correct (ignore gold affix fields)")
    p.add_argument("--json", action="store_true")
    _add_stem_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rules", help="validate or list a rule file")
    p.add_argument("action", choices=("validate", "list"))
    p.add_argument("--rules", required=True, metavar="PATH")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("gen", help="generate a gold corpus from a lexicon")
    p.add_argument("--lexicon", required=True, metavar="PATH")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    # Error messages are UTF-8, as _write makes the output, whatever the locale
    # says; stderr keeps its own error handler.  A StringIO or other text sink
    # without reconfigure is left as it is.
    if getattr(sys.stderr, "reconfigure", None) and codecs.lookup(sys.stderr.encoding).name != "utf-8":
        sys.stderr.reconfigure(encoding="utf-8", errors=sys.stderr.errors)
    args = build_parser().parse_args(argv)
    try:
        stdin_args = [name for name in _FILE_ARGS if getattr(args, name.lstrip("-"), None) == "-"]
        if len(stdin_args) > 1:
            raise CliError(f"stdin can be read only once, but {' and '.join(stdin_args)} both name -",
                           EXIT_INPUT)
        enabled = gc.isenabled()
        gc.disable()  # the module docstring says why
        try:
            code = args.func(args)
        finally:
            if enabled:
                gc.enable()
        sys.stdout.flush()  # so that a closed pipe is seen here, not at exit
        return code
    except CliError as exc:
        print(f"urdustem: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  What is still buffered goes
        # to devnull, so that the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
