import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from urdustem import cli, corpus, data, evaluation, morphology, stemmer
from urdustem.cli import EXIT_PIPE, _json_renderer, _tsv_line, main
from urdustem.graphemes import ZWJ, ZWNJ
from urdustem.rules import AffixKind, AffixRule, RuleParseError, RuleSet, parse_rule_file, serialize_rule_set
from urdustem.stemmer import StemConfig, StemResult, shown_affix, stem_batch, stem_word

from conftest import DIACRITICS, URDU_LETTERS, random_ruleset, random_word
from test_evaluation import _naive_results
from test_rules import _RULE_LINES

SRC = Path(__file__).resolve().parent.parent / "src"

TABLE2_WORDS = "علاقوں فاصلے سوالات لڑکیاں راجویر نوجوان لاجواب".split() + ["بد نصیب"]

TABLE2_TSV = [
    "علاقوں\t\tعلاقہ\tوں",
    "فاصلے\t\tفاصلہ\tے",
    "سوالات\t\tسوال\tات",
    "لڑکیاں\t\tلڑکی\tیاں",
    "راجویر\tراج\tویر\t",
    "نوجوان\tنو\tجوان\t",
    "لاجواب\tلا\tجواب\t",
    "بد نصیب\tبد\tنصیب\t",
]


# Characters the JSON string escaper treats differently: quote, backslash,
# C0 controls, DEL, U+2028, lone surrogates, Urdu letters, harakat, ZWNJ.
_JSON_FIELD = st.text(alphabet=st.sampled_from(
    '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028\ud800\udbff\udc00\udfff "
    + URDU_LETTERS + DIACRITICS + ZWNJ
), max_size=6)

# TSV fields: Urdu letters, harakat, ZWNJ and inner spaces; an affix may
# also have whitespace at either end, as table2's "بد " prefix has.
_TSV_FIELD = st.text(alphabet=URDU_LETTERS + DIACRITICS + ZWNJ + " ", max_size=6)
_TSV_AFFIX = st.tuples(st.sampled_from(["", " ", "\xa0", "\u3000 "]), _TSV_FIELD,
                       st.sampled_from(["", " ", "\t", "\u2003"])).map("".join)


@pytest.fixture
def table2_input(tmp_path):
    p = tmp_path / "words.txt"
    p.write_text("".join(w + "\n" for w in TABLE2_WORDS), encoding="utf-8")
    return str(p)


def reference_output(words, rs, as_json):
    """``stem``'s stdout for *words* in the README's formats, one
    ``stem_word`` call per token."""
    lines = []
    for word in words:
        r = stem_word(word, rs)
        if as_json:
            lines.append(json.dumps(
                {"word": r.word, "prefix": r.prefix, "stem": r.stem, "suffix": r.suffix,
                 "applied": list(r.applied), "exception": r.exception_hit},
                ensure_ascii=False,
            ))
        else:
            lines.append("\t".join(
                (r.word, (r.prefix or "").strip(), r.stem, (r.suffix or "").strip())
            ))
    return "".join(line + "\n" for line in lines)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStem:
    def test_documented_rows(self, capsys, table2_input):
        code, out, err = run(
            capsys, "stem", table2_input, "--rules", data.path(data.TABLE2_RULES), "--pretokenized"
        )
        assert code == 0 and err == ""
        assert out.splitlines() == TABLE2_TSV

    def test_empty_input(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES))
        assert code == 0 and out == ""

    def test_stdin_equals_file(self, capsys, table2_input, monkeypatch):
        import io
        import sys

        code, from_file, _ = run(
            capsys, "stem", table2_input, "--rules", data.path(data.TABLE2_RULES), "--pretokenized"
        )
        content = Path(table2_input).read_bytes()
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(content)})())
        code2, from_stdin, _ = run(
            capsys, "stem", "-", "--rules", data.path(data.TABLE2_RULES), "--pretokenized"
        )
        assert (code, from_file) == (code2, from_stdin)

    def test_tokenized_mode(self, capsys, tmp_path):
        p = tmp_path / "text.txt"
        p.write_text("علاقوں میں، سوالات۔", encoding="utf-8")
        code, out, _ = run(capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES))
        words = [line.split("\t")[0] for line in out.splitlines()]
        assert words == ["علاقوں", "میں", "سوالات"]

    def test_json_output(self, capsys, table2_input):
        code, out, _ = run(
            capsys, "stem", table2_input, "--rules", data.path(data.TABLE2_RULES),
            "--pretokenized", "--json",
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["stem"] == "علاقہ"
        assert records[0]["applied"] == ["S:وں"]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_repeated_word_lines_match_single_results(
        self, capsys, tmp_path, default_rules, as_json
    ):
        # One word recurs bare, fused to a comma and fused to a full stop.
        p = tmp_path / "text.txt"
        p.write_text("لڑکوں کتابیں لڑکوں، بدنصیب لڑکوں۔ کتابیں\n", encoding="utf-8")
        words = ["لڑکوں", "کتابیں", "لڑکوں", "بدنصیب", "لڑکوں", "کتابیں"]
        argv = ["stem", str(p), "--rules", data.path(data.DEFAULT_RULES)]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 0 and err == ""
        assert out == reference_output(words, default_rules, as_json)

    @given(
        word=_JSON_FIELD, stem=_JSON_FIELD,
        prefix=st.none() | _JSON_FIELD, suffix=st.none() | _JSON_FIELD,
        applied=st.lists(_JSON_FIELD, max_size=3).map(tuple), exception=st.booleans(),
    )
    def test_json_line_equals_json_encoder(self, word, stem, prefix, suffix, applied, exception):
        r = StemResult(word, stem, prefix, suffix, applied, exception)
        expected = json.JSONEncoder(ensure_ascii=False).encode(
            {"word": word, "prefix": prefix, "stem": stem, "suffix": suffix,
             "applied": list(applied), "exception": exception}
        )
        assert _json_renderer()(r) == expected + "\n"

    @given(
        tails=st.lists(st.tuples(st.none() | _JSON_FIELD, st.none() | _JSON_FIELD,
                                 st.lists(_JSON_FIELD, max_size=3).map(tuple), st.booleans()),
                       min_size=1, max_size=4),
        heads=st.lists(st.tuples(_JSON_FIELD, _JSON_FIELD, st.integers(0, 3)), max_size=20),
    )
    def test_one_renderer_gives_each_line_as_json_dumps(self, tails, heads):
        # Results that share a firing sequence but differ in word and stem,
        # through one renderer, so that later lines reuse its fragments.
        render = _json_renderer()
        for word, stem, i in heads:
            prefix, suffix, applied, exception = tails[i % len(tails)]
            expected = json.dumps({"word": word, "prefix": prefix, "stem": stem, "suffix": suffix,
                                   "applied": list(applied), "exception": exception},
                                  ensure_ascii=False)
            r = StemResult(word, stem, prefix, suffix, applied, exception)
            assert render(r) == expected + "\n"

    @given(
        word=_TSV_FIELD, stem=_TSV_FIELD,
        prefix=st.none() | _TSV_AFFIX, suffix=st.none() | _TSV_AFFIX,
        applied=st.lists(_TSV_FIELD, max_size=3).map(tuple), exception=st.booleans(),
    )
    @example(word="بد نصیب", stem="نصیب", prefix="بد ", suffix=None, applied=("P:بد ",), exception=False)
    def test_tsv_line_shows_affixes_as_shown_affix(self, word, stem, prefix, suffix, applied, exception):
        r = StemResult(word, stem, prefix, suffix, applied, exception)
        expected = "\t".join((word, shown_affix(prefix), stem, shown_affix(suffix))) + "\n"
        assert _tsv_line(r) == expected

    def test_rule_with_arabic_letters_fires(self, capsys, tmp_path):
        # Input and rule file are unified alike, so the Arabic-yeh suffix fires.
        rules = tmp_path / "arabic.rules"
        rules.write_text("S\tيں\n", encoding="utf-8")
        words = tmp_path / "words.txt"
        words.write_text("كتابيں\n", encoding="utf-8")
        code, out, _ = run(capsys, "stem", str(words), "--rules", str(rules))
        assert (code, out) == (0, "کتابیں\t\tکتاب\tیں\n")

    def test_bad_rule_file_exits_1(self, capsys, tmp_path, table2_input):
        bad = tmp_path / "bad.rules"
        bad.write_text("S\tی\tیاں\n", encoding="utf-8")
        code, out, err = run(capsys, "stem", table2_input, "--rules", str(bad))
        assert code == 1 and out == "" and "line 1" in err

    def test_leading_bom_dropped_from_pretokenized_input(self, capsys, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_text("\ufeffنوجوان\nنوجوان\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized"
        )
        assert code == 0
        assert out.splitlines() == ["نوجوان\tنو\tجوان\t"] * 2

    def test_invalid_byte_after_bom_reports_raw_offset(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xef\xbb\xbf\xff")
        code, out, err = run(capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES))
        assert code == 2 and out == ""
        assert "invalid UTF-8 at byte 3" in err

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["tsv", "json"])
    @pytest.mark.parametrize("text, lineno", [
        ("بد\tنصیب\n", 1),
        ("کتاب\n\nکتاب\rوں\n", 3),
    ], ids=["tab", "cr"])
    def test_pretokenized_word_with_tab_or_cr_exits_2(self, capsys, tmp_path, text, lineno, mode):
        # Written out, the tab would add TSV fields and the CR would split
        # the line for a universal-newline reader.
        p = tmp_path / "words.txt"
        p.write_bytes(text.encode("utf-8"))
        code, out, err = run(
            capsys, "stem", str(p), "--rules", data.path(data.TABLE2_RULES), "--pretokenized", *mode
        )
        assert code == 2 and out == ""
        assert f"line {lineno}: tab or CR inside a word" in err

    def test_pretokenized_crlf_and_edge_tabs_accepted(self, capsys, tmp_path):
        p = tmp_path / "words.txt"
        p.write_bytes("\tنوجوان\r\nنوجوان\t\r\n".encode("utf-8"))
        code, out, _ = run(
            capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized"
        )
        assert code == 0
        assert out.splitlines() == ["نوجوان\tنو\tجوان\t"] * 2

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "stem", str(tmp_path / "nope.txt"), "--rules", data.path(data.DEFAULT_RULES)
        )
        assert code == 2 and err


# Words that recur on both sides of every block edge; "بد نصیب" only as a
# pretokenized line, since the tokenizer splits it.
_BLOCK_WORDS = ["لڑکوں", "کتابیں", "علاقوں", "فاصلے", "نوجوان", "کتاب", "لڑکیاں"]
_BLOCK_COUNTS = [0, 1, 1023, 1024, 1025, 2049]


class _Writes:
    """A stdout that records each ``write`` call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


def _block_words(n, pretokenized):
    vocab = _BLOCK_WORDS + ["بد نصیب"] * pretokenized
    return [vocab[i % len(vocab)] for i in range(n)]


class TestBlocks:
    """``stem`` writes each input block's output in one write."""

    @pytest.mark.parametrize("n", _BLOCK_COUNTS)
    @pytest.mark.parametrize("mode", [(), ("--json",), ("--pretokenized",), ("--pretokenized", "--json")],
                             ids=["tsv", "json", "pretokenized", "pretokenized-json"])
    def test_output_equals_one_stem_word_call_per_token(self, capsys, tmp_path, default_rules, n, mode):
        words = _block_words(n, "--pretokenized" in mode)
        p = tmp_path / "in.txt"
        p.write_text(("\n" if "--pretokenized" in mode else " ").join(words) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "stem", str(p), "--rules", data.path(data.DEFAULT_RULES), *mode)
        assert code == 0 and err == ""
        assert out == reference_output(words, default_rules, "--json" in mode)

    @pytest.mark.parametrize("n", _BLOCK_COUNTS)
    def test_one_write_per_block(self, tmp_path, monkeypatch, default_rules, n):
        # Input blocks of about 1,240 words, one a line with --pretokenized
        # and all on one line in running text: more than 1,024 in every
        # block but the last, which holds the rest.
        monkeypatch.setattr(cli, "_INPUT_BLOCK", 15000)
        for mode, sep in [(["--pretokenized"], "\n"), ([], " "), ([], "\xa0")]:
            words = _block_words(n, bool(mode))
            p = tmp_path / "in.txt"
            p.write_text("".join(w + sep for w in words), encoding="utf-8")
            stdout = _Writes()
            with redirect_stdout(stdout):
                code = main(["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), *mode])
            # The shortest runs of whole words, each with its separator (the
            # cut character, 1 or 2 bytes), of _INPUT_BLOCK bytes or more.
            blocks, size = [], cli._INPUT_BLOCK
            for w in words:
                if size >= cli._INPUT_BLOCK:
                    blocks.append([])
                    size = 0
                blocks[-1].append(w)
                size += len((w + sep).encode("utf-8"))
            assert code == 0
            assert stdout.calls == [reference_output(block, default_rules, False) for block in blocks]

    def test_peak_memory_is_a_few_times_the_output(self, tmp_path):
        """The traced peak of ``main`` on all-distinct words with ``--json``
        stays under six times the UTF-8 size of its output.  Holding the
        results, their lines and the joined output at once reads about 9.3
        times; one line per word in place of its result, written in
        blocks, about 4.3."""
        rng = random.Random(21)
        words = set()
        while len(words) < 6000:
            words.add(random_word(rng, 3, 10))
        p, out_path = tmp_path / "in.txt", tmp_path / "out.jsonl"
        p.write_text("".join(w + "\n" for w in sorted(words)), encoding="utf-8")
        argv = ["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized", "--json"]

        def stem():
            with open(out_path, "w", encoding="utf-8") as out, redirect_stdout(out):
                return main(argv)

        stem()  # loads what every later call reuses, such as the JSON escaper
        tracemalloc.start()
        try:
            code = stem()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / out_path.stat().st_size < 6


class TestOutputEncoding:
    """Output and error messages are UTF-8 whatever encoding the locale
    gives stdout and stderr."""

    @pytest.mark.parametrize("argv, stdin", [
        (["stem", "-", "--rules", data.path(data.DEFAULT_RULES)], "abc " * 1100 + "لڑکوں، کتابیں\n"),
        (["stem", "-", "--rules", data.path(data.DEFAULT_RULES), "--json"], "abc " * 1100 + "لڑکوں\n"),
        (["gen", "--lexicon", data.path(data.GROUP1_LEXICON)], ""),
        (["rules", "list", "--rules", data.path(data.DEFAULT_RULES)], ""),
    ], ids=["stem", "stem-json", "gen", "rules-list"])
    def test_ascii_stdout_writes_the_utf8_bytes(self, argv, stdin):
        def run_cli(encoding):
            env = {**os.environ, "PYTHONIOENCODING": encoding,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
            return subprocess.run([sys.executable, "-m", "urdustem.cli", *argv], input=stdin.encode("utf-8"),
                                  env=env, capture_output=True, timeout=60)

        ascii_run, utf8_run = run_cli("ascii"), run_cli("utf-8")
        assert ascii_run.returncode == 0, ascii_run.stderr.decode("utf-8", "replace")
        assert utf8_run.returncode == 0 and not utf8_run.stdout.isascii()
        assert ascii_run.stdout == utf8_run.stdout

    @pytest.mark.parametrize("encoding", ["ascii", "utf-8"])
    def test_error_message_is_utf8(self, encoding):
        # The exception word has a space at its edge, so validation fails
        # and the message quotes it.
        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "urdustem.cli", "rules", "validate", "--rules", "-"],
                              input="#!exception\t کتاب\n".encode("utf-8"), env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == b""
        assert " کتاب".encode("utf-8") in proc.stderr, proc.stderr


class TestEval:
    def test_self_consistent_gold(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("قلم\tقلم\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold)
        )
        assert code == 0
        assert "100.0" in out
        assert "total_words\t1" in out

    def test_accuracy_below_100_still_exits_0(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("علاقوں\tعلاقوں\n", encoding="utf-8")  # stemmer will strip
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold)
        )
        assert code == 0
        assert "0.0" in out

    def test_gold_with_arabic_letters_scored_as_stem_reads_them(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("كتابيں\tكتاب\t\tيں\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold)
        )
        assert code == 0
        assert "\ncorrect\t1\n" in out and "\nunder_stemming\t0\n" in out

    def test_prefix_scored_as_stem_prints_it(self, capsys, tmp_path):
        # default.rules detaches the prefix "بد " with its space; stem
        # prints it trimmed, and a gold line that says so is correct.
        gold = tmp_path / "gold.tsv"
        gold.write_text("بد نصیب\tنصیب\tبد\t\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold)
        )
        assert code == 0
        assert "\ncorrect\t1\n" in out and "\nother_errors\t0\n" in out

    @pytest.mark.parametrize("strip,correct", [([], 1), (["--strip-diacritics=false"], 0)])
    def test_gold_with_harakat_scored_as_stem_reads_it(self, capsys, tmp_path, strip, correct):
        # A fatha after the beh: stem strips it by default, and so does eval,
        # from every gold field; with stripping off the stem keeps it.
        gold = tmp_path / "gold.tsv"
        gold.write_text("کتاب\u064eیں\tکتاب\t\tیں\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold), *strip
        )
        assert code == 0 and f"\ncorrect\t{correct}\n" in out

    @settings(max_examples=150, deadline=None)
    @given(
        word=st.builds(
            lambda *parts: "".join(parts).strip(),
            st.sampled_from(["", "بد ", "بد", "نو", "لا"]),
            st.text(alphabet=URDU_LETTERS + DIACRITICS + ZWNJ + "\u0640\u0670\u0654 ",
                    min_size=1, max_size=8),
            st.sampled_from(["", "وں", "ات", "یاں", "ے", "ی", "\u064eیں"]),
        ),
        rules=st.sampled_from([data.DEFAULT_RULES, data.TABLE2_RULES]),
        strip=st.booleans(),
        passes=st.sampled_from(["1", "2"]),
        order=st.sampled_from(["suffix-first", "prefix-first"]),
    )
    # Stripping the fatha leaves a space at the word's end, which stem trims
    # from a line and eval from a gold word.
    @example(word="کتاب \u064e", rules=data.DEFAULT_RULES, strip=True, passes="1",
             order="suffix-first")
    def test_printed_fields_as_gold_score_correct(
        self, contract_dir, word, rules, strip, passes, order
    ):
        # What stem --pretokenized prints for a word, with or without harakat,
        # tatweel or ZWNJ, written in gold column order (word, stem, prefix,
        # suffix), is correct under eval with the same flags; so is that line
        # with the word as written, since both commands strip, or keep, the
        # same marks.
        flags = [f"--strip-diacritics={strip}", "--suffix-passes", passes,
                 "--prefix-passes", passes, "--order", order]
        text, gold = contract_dir / "word.txt", contract_dir / "printed.tsv"
        text.write_text(word + "\n", encoding="utf-8")
        rule_path = data.path(rules)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["stem", str(text), "--pretokenized", "--rules", rule_path, *flags]) == 0
        assume(out.getvalue())  # only marks, and stripping left no word
        printed, prefix, stem, suffix = out.getvalue().removesuffix("\n").split("\t")
        gold.write_text("".join("\t".join((w, stem, prefix, suffix)) + "\n" for w in (printed, word)),
                        encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["eval", "--rules", rule_path, "--gold", str(gold), *flags]) == 0
        assert "\ncorrect\t2\n" in out.getvalue()

    def test_corrupted_gold_line_exits_2(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("قلم\tقلم\n\tbroken\n", encoding="utf-8")
        code, _, err = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold)
        )
        assert code == 2 and "line 2" in err

    def test_json_report(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("قلم\tقلم\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(gold), "--json"
        )
        assert out == (
            '{"total_words": 1, "correct": 1, "wrong": 0, "unique_correct": 1, '
            '"pass_through_count": 1, "accuracy_percent": "100.0", "over_count": 0, '
            '"under_count": 0, "other_count": 0, "min_word_len": 3, "max_word_len": 3}\n'
        )


class TestRules:
    def test_validate_shipped_file(self, capsys):
        code, out, _ = run(capsys, "rules", "validate", "--rules", data.path(data.DEFAULT_RULES))
        assert code == 0 and out.startswith("ok:")

    def test_list_matches_header_counts(self, capsys, default_rules):
        code, out, err = run(capsys, "rules", "list", "--rules", data.path(data.DEFAULT_RULES))
        assert (code, err) == (0, "")
        assert out == serialize_rule_set(default_rules)
        assert parse_rule_file(out) == default_rules
        assert out.splitlines()[1:3] == ["# suffixes: 17", "# prefixes: 4"]

    def test_list_shows_the_exception_words(self, capsys):
        code, out, _ = run(capsys, "rules", "list", "--rules", data.path(data.TABLE2_RULES))
        assert code == 0 and out == serialize_rule_set(data.load_rules(data.TABLE2_RULES))
        assert "#!exception\tبدمعاش" in out.splitlines()

    @settings(deadline=None)
    @given(st.lists(_RULE_LINES, max_size=4).map("\n".join))
    def test_a_listed_rule_file_reads_back_and_lists_to_itself(self, blocks_dir, text):
        p = blocks_dir / "in.rules"
        p.write_bytes(text.encode("utf-8"))
        if _stdout_of(["rules", "validate", "--rules", str(p)])[0] != 0:
            return
        code, out, err = _stdout_of(["rules", "list", "--rules", str(p)])
        assert (code, err) == (0, "")
        assert parse_rule_file(out) == parse_rule_file(text)
        p.write_bytes(out.encode("utf-8"))
        assert _stdout_of(["rules", "list", "--rules", str(p)]) == (0, out, "")

    def test_replacement_longer_than_pattern_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("S\tی\tیاں\n", encoding="utf-8")
        code, _, err = run(capsys, "rules", "validate", "--rules", str(bad))
        assert code == 1 and "longer" in err

    def test_duplicate_rule_exits_1_naming_both_lines(self, capsys, tmp_path):
        bad = tmp_path / "dup.rules"
        bad.write_text("S\tوں\nS\tوں\tہ\n", encoding="utf-8")
        code, _, err = run(capsys, "rules", "validate", "--rules", str(bad))
        assert code == 1 and "line 2" in err and "line 1" in err

    def test_second_default_min_stem_exits_1_naming_both_lines(self, capsys, tmp_path):
        bad = tmp_path / "twice.rules"
        bad.write_text("#!default-min-stem\t1\nS\tوں\n#!default-min-stem\t3\n", encoding="utf-8")
        code, out, err = run(capsys, "rules", "validate", "--rules", str(bad))
        assert code == 1 and out == ""
        assert err == f"urdustem: {bad}: line 3: duplicate #!default-min-stem (first defined on line 1)\n"

    def test_unknown_directive_exits_1_naming_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bogus.rules"
        bad.write_text("#!bogus\tx\nS\tوں\n", encoding="utf-8")
        code, out, err = run(capsys, "rules", "validate", "--rules", str(bad))
        assert (code, out) == (1, "")
        assert err == f"urdustem: {bad}: line 1: unknown directive '#!bogus'\n"


class TestGen:
    def test_single_noun_grid(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("noun\tہتھوڑا\n", encoding="utf-8")
        code, out, _ = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 6
        assert lines[0] == "ہتھوڑا\tہتھوڑا\t\t"
        assert "ہتھوڑوں\tہتھوڑا\t\tوں" in lines

    def test_empty_lexicon(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 0 and out == ""

    def test_verb_root_lines(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("verb\tکر\n", encoding="utf-8")
        code, out, _ = run(capsys, "gen", "--lexicon", str(lex))
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert [l.split("\t")[3] for l in lines] == ["نا", "انا", "وانا"]
        assert any("pattern-generalized" in l for l in out.splitlines() if l.startswith("#"))

    def test_unsupported_entry_named(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("adverb\tیہاں\n", encoding="utf-8")
        code, out, err = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 2 and out == ""
        assert err == f"urdustem: {lex}: line 1: unknown category 'adverb'\n"

    def test_noun_without_paradigm_names_file_and_line(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("noun\tسوال\n", encoding="utf-8")
        code, out, err = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 2 and out == ""
        assert err == f"urdustem: {lex}: line 1: no paradigm specified for lemma 'سوال' (must end in ا, ہ or ع)\n"

    def test_adjective_without_alif_names_file_and_line(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("noun\tہتھوڑا\nadj\tسرخ\n", encoding="utf-8")
        code, out, err = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 2 and out == ""
        assert err.startswith(
            f"urdustem: {lex}: line 2: paradigm not specified for adjective 'سرخ' (must end in ا)"
        )

    def test_lemma_starting_with_hash_exits_2(self, capsys, tmp_path):
        # Its gold lines would start with "#", which eval reads as comments.
        lex = tmp_path / "lex.tsv"
        lex.write_text("noun\tکمرا\nnoun\t#لڑکا\n", encoding="utf-8")
        code, out, err = run(capsys, "gen", "--lexicon", str(lex))
        assert code == 2 and out == ""
        assert err.startswith(f"urdustem: {lex}: line 2: lemma '#لڑکا' starts with '#'")

    def test_lexicon_in_arabic_letters_gives_the_urdu_gold(self, capsys, tmp_path):
        # Arabic heh and kaf are unified in the lexicon as in stem's input.
        outs = []
        for text in ("noun\tعلاقه\nnoun\tلڑكا\n", "noun\tعلاقہ\nnoun\tلڑکا\n"):
            lex = tmp_path / "lex.tsv"
            lex.write_text(text, encoding="utf-8")
            outs.append(run(capsys, "gen", "--lexicon", str(lex)))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and "علاقوں\tعلاقہ\t\tوں\n" in outs[0][1]

    def test_gen_output_feeds_eval(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        code, out, _ = run(capsys, "gen", "--lexicon", data.path(data.GROUP1_LEXICON))
        assert code == 0
        gold.write_text(out, encoding="utf-8")
        code, out, _ = run(
            capsys, "eval", "--rules", data.path(data.PARADIGM_RULES), "--gold", str(gold)
        )
        assert code == 0
        assert "accuracy_percent\t100.0" in out


# Line pieces for block-wise input: a U+FEFF, a combining acute, a Hangul V
# jamo or a tab that opens a line, and a Hangul L jamo or a tab that closes
# one, so that a block edge falls between characters that NFC would compose
# or that the line trim drops.  Line contents hold whitespace that cuts
# running text but not --pretokenized lines, of each UTF-8 length: space,
# VT, FF and U+001C; U+0085 and U+00A0; U+2000 (which NFC maps to U+2002),
# U+2003, U+2028 and U+3000.  They hold no tab or CR, so that every
# --pretokenized line is a valid word.
_LINE_LEAD = st.sampled_from(["", "", "\ufeff", "\u0301", "\u1161", "\t"])
_LINE_TRAIL = st.sampled_from(["", "", "\u1100", "\t"])
_LINE_BODY = st.lists(st.sampled_from([
    *_BLOCK_WORDS, "بد نصیب", " ", "۔", "2013", "a", "َ", "ـ", ZWNJ, "\u0643", "\ufeff",
    "\x0b", "\x0c", "\x85", "\xa0", "\u2000", "\u2003", "\u2028", "\u3000", "\x1c",
]), max_size=5).map("".join)
_BLOCK_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.tuples(_LINE_LEAD, _LINE_BODY, _LINE_TRAIL, st.sampled_from(["\n", "\r\n"])).map("".join),
             max_size=12).map("".join),
    st.sampled_from(["", "کتاب", "\u1100"]),  # a last line without an LF
).map("".join)

# One --pretokenized line: pieces that table2's and the default rules strip
# (a prefix with its space among them), harakat, ZWNJ and spaces.
_PRETOKENIZED_WORD = st.lists(st.sampled_from(
    ["بد ", "نو", "لا", "راج", "کتاب", "علاق", "فاصل", "وں", "ات", "یاں", "یں", "ے", "ی",
     "\u064e", ZWNJ, " "]), max_size=5).map("".join)

# Pieces of a --pretokenized word list: the tab, lone CR, CRLF and LF that
# end or fail a line, the spaces that trimming drops, a fatha and a tatweel
# that stripping drops, ZWNJ and letters.
_CR_WORD_LIST = st.lists(st.sampled_from(
    ["\t", "\r", "\r\n", "\n", " ", "\xa0", "\u064e", "\u0640", ZWNJ, "کتاب", "وں", "ا"]),
    max_size=40).map("".join)


@pytest.fixture(scope="module")
def blocks_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


def _stdout_of(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestInputBlocks:
    """``stem`` reads its input in blocks of ``_INPUT_BLOCK`` or more bytes,
    each ending just after an LF with --pretokenized and just after any
    character that ``str.split`` splits at in running text, and gives the
    output of the whole input."""

    @settings(max_examples=300, deadline=None)
    @given(text=_BLOCK_TEXT, block=st.integers(1, 400), strip=st.booleans(),
           mode=st.sampled_from([(), ("--json",), ("--pretokenized",), ("--pretokenized", "--json")]))
    @example(text="\ufeffکتاب\n\ufeffکتاب\r\n\u1100\n\u1161کتابیں\t\n", block=1, strip=True,
             mode=("--pretokenized",))
    def test_blocks_give_the_whole_input_output(self, blocks_dir, default_rules, text, block, strip, mode):
        normalized = corpus.normalize(text.removeprefix("\ufeff"), strip)
        words = ([w for w in map(str.strip, normalized.split("\n")) if w] if "--pretokenized" in mode
                 else corpus.tokenize(normalized))
        expected = reference_output(words, default_rules, "--json" in mode)
        p = blocks_dir / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_INPUT_BLOCK", block)
            mp.setattr(stemmer, "stem_word", lambda word, *a: calls.append(word) or stem_word(word, *a))
            code, out, err = _stdout_of(["stem", str(p), "--rules", data.path(data.DEFAULT_RULES),
                                         f"--strip-diacritics={strip}", *mode])
        assert (code, err) == (0, "")
        assert out == expected
        assert sorted(calls) == sorted(set(words))

    @settings(max_examples=100, deadline=None)
    @given(words=st.lists(_PRETOKENIZED_WORD, max_size=25), block=st.integers(1, 300),
           passes=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           order=st.sampled_from([stemmer.SUFFIX_FIRST, stemmer.PREFIX_FIRST]),
           rules=st.sampled_from([data.DEFAULT_RULES, data.TABLE2_RULES]), strip=st.booleans())
    def test_tsv_and_json_lines_agree(self, blocks_dir, words, block, passes, order, rules, strip):
        """Line *i* of ``stem --json`` has the word, trimmed affixes (null
        read as "") and stem of line *i* of the TSV output."""
        p = blocks_dir / "words.txt"
        p.write_bytes("".join(w + "\n" for w in words).encode("utf-8"))
        argv = ["stem", str(p), "--pretokenized", "--rules", data.path(rules), "--order", order,
                "--suffix-passes", str(passes[0]), "--prefix-passes", str(passes[1]),
                f"--strip-diacritics={strip}"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_INPUT_BLOCK", block)
            tsv, as_json = _stdout_of(argv), _stdout_of([*argv, "--json"])
        assert tsv[0] == as_json[0] == 0 and tsv[2] == as_json[2] == ""
        tsv_lines, json_lines = tsv[1].split("\n"), as_json[1].split("\n")
        lines = corpus.normalize("\n".join(words), strip).split("\n")
        assert len(tsv_lines) == len(json_lines) == 1 + sum(1 for w in lines if w.strip())
        for line, record in zip(tsv_lines[:-1], map(json.loads, json_lines[:-1])):
            assert line.split("\t") == [record["word"], (record["prefix"] or "").strip(),
                                        record["stem"], (record["suffix"] or "").strip()]

    @settings(max_examples=300, deadline=None)
    @given(text=_CR_WORD_LIST, block=st.integers(1, 200), strip=st.booleans())
    def test_a_tab_or_cr_inside_a_word_fails_whatever_the_blocks(self, blocks_dir, default_rules,
                                                                   text, block, strip):
        """The exit code, stdout and stderr of the whole text normalized at
        once: the first line whose trimmed text holds a tab or CR fails."""
        words = [w.strip() for w in corpus.normalize(text, strip).split("\n")]
        bad = next((i for i, w in enumerate(words, start=1) if "\t" in w or "\r" in w), None)
        p = blocks_dir / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        if bad:
            expected = (2, "", f"urdustem: {p}: line {bad}: tab or CR inside a word\n")
        else:
            expected = (0, reference_output([w for w in words if w], default_rules, False), "")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_INPUT_BLOCK", block)
            assert _stdout_of(["stem", str(p), "--pretokenized", "--rules", data.path(data.DEFAULT_RULES),
                               f"--strip-diacritics={strip}"]) == expected

    @pytest.mark.parametrize("block", [1, 100, None], ids=["line", "100-bytes", "16KiB"])
    @pytest.mark.parametrize("error", ["byte", "tab"])
    def test_error_in_the_last_block_writes_nothing(self, tmp_path, monkeypatch, block, error):
        words = _block_words(3000, False)
        head = "".join(w + "\n" for w in words).encode("utf-8")
        assert len(head) > 2 * cli._INPUT_BLOCK
        if block:
            monkeypatch.setattr(cli, "_INPUT_BLOCK", block)
        p = tmp_path / "in.txt"
        if error == "byte":
            p.write_bytes(head + "کتاب".encode("utf-8") + b"\xff\n")
            message = f"invalid UTF-8 at byte {len(head) + len('کتاب'.encode('utf-8'))}"
        else:
            p.write_bytes(head + "بد\tنصیب\n".encode("utf-8"))
            message = f"line {len(words) + 1}: tab or CR inside a word"
        stdout, stderr = _Writes(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized"])
        assert code == 2 and stdout.calls == []
        assert message in stderr.getvalue()

    @staticmethod
    def _peak_growth(tmp_path, space, line_end):
        """The traced peak of ``main`` on 40 copies of a text, less its peak
        on 4 copies, and the input bytes that the 36 more copies add."""
        rng = random.Random(24)
        vocab = [random_word(rng, 2, 8) for _ in range(400)]
        text = "".join(space.join(rng.choices(vocab, k=10)) + line_end for _ in range(200))

        def peak(copies):
            p = tmp_path / f"in{copies}.txt"
            p.write_text(text * copies, encoding="utf-8")
            with open(os.devnull, "w", encoding="utf-8") as out, redirect_stdout(out):
                tracemalloc.start()
                try:
                    assert main(["stem", str(p), "--rules", data.path(data.DEFAULT_RULES)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1)  # loads what every later call reuses
        return peak(40) - peak(4), 36 * len(text.encode("utf-8"))

    def test_peak_memory_follows_the_vocabulary(self, tmp_path):
        """The traced peak of ``main`` on 40 copies of a text exceeds its
        peak on 4 copies by less than twice the input bytes added (about
        once: the bytes themselves).  Holding the input as text, normalized
        text and tokens at once grew it by about ten times those bytes."""
        growth, added = self._peak_growth(tmp_path, " ", "\n")
        assert growth < 2 * added

    def test_peak_memory_follows_the_vocabulary_on_one_line(self, tmp_path):
        """The same bound with the text's LFs made spaces, so that the input
        is one line.  Blocks of whole lines made that line one block, and its
        peak grew by about eleven times the bytes added."""
        growth, added = self._peak_growth(tmp_path, " ", " ")
        assert growth < 2 * added

    def test_peak_memory_follows_the_vocabulary_with_no_ascii_whitespace(self, tmp_path):
        """The same bound with every space and LF made U+00A0.  Cuts at ASCII
        whitespace alone made the whole input one block."""
        growth, added = self._peak_growth(tmp_path, "\xa0", "\xa0")
        assert growth < 2 * added

    @given(text=st.lists(st.sampled_from(["کتاب", "a", "\u0301", *cli._WHITESPACE]), max_size=30).map("".join),
           block=st.integers(1, 12))
    def test_a_block_is_the_shortest_run_that_ends_after_whitespace(self, text, block):
        # Counted in characters: a multi-byte cut character that straddles
        # the block's minimum size ends the block.
        expected, size = [], block
        for ch in text:
            if size >= block:
                expected.append("")
                size = 0
            expected[-1] += ch
            size += len(ch.encode("utf-8"))
            if ch not in cli._WHITESPACE:
                size = min(size, block - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_INPUT_BLOCK", block)
            assert list(cli._input_blocks("in.txt", text.encode("utf-8"), False)) == expected

    def test_running_text_is_cut_at_every_character_that_split_splits_at(self):
        whitespace = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        assert "".join(whitespace) == cli._WHITESPACE
        for ch in whitespace:
            # A starter, and one character under NFC.
            assert unicodedata.combining(ch) == 0
            assert len(unicodedata.normalize("NFC", ch)) == 1


# Rules added to a random rule file for the word-list property: recodings
# to a letter with a fatha, so that a letters-only stem gains a mark, rules
# whose patterns hold '"' and '\\', and patterns that the pieces of
# _WORD_LIST_WORD carry, some inside others.  Each is drawn with even odds;
# one whose (kind, pattern) the random file has already is left out.
_EXTRA_RULES = (
    ("S", "وں", "ہَ", None), ("S", "ہَ", "", 5), ("P", "ا", "بَ", 1), ("P", "نو", "بَ", None),
    ("P", "ب", "", 1),
    ("S", '"', "", 1), ("P", "\\", "", 1), ("S", 'ی"', "ے", None), ("P", '"\\', "", 1),
    ("S", "یاں", "ی", None), ("P", "بد", "", None), ("S", "یَ", "", None), ("S", "ں", "", 1),
)

_EXCEPTION_WORD = "بدمعاش"

# One --pretokenized line: letters and affixes, harakat, ZWNJ, '"', '\\'
# and spaces; or the exception word.
_WORD_LIST_WORD = st.lists(st.sampled_from(
    ["بد", "نو", "کتاب", "علاق", "اکتاب", "وں", "یاں", "ہَ", "ات", "ے", "ی", "ب", "ا",
     "َ", "ِ", ZWNJ, '"', "\\", " "]), min_size=1, max_size=5).map("".join)
_WORD_LIST = st.lists(_WORD_LIST_WORD | st.just(_EXCEPTION_WORD), min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30))  # with repeats


class TestWordListAgainstNaiveStemmer:
    """``stem --pretokenized``, TSV and ``--json``, line for line against
    ``naive_stem`` through ``ClusterCodes``, each line rendered here by
    ``json.dumps`` or a tab join, over random rule files with recodings,
    repeated words and block sizes that spread one firing sequence's lines
    over many blocks."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rules=st.integers(1, 24),
           extra=st.lists(st.booleans(), min_size=len(_EXTRA_RULES), max_size=len(_EXTRA_RULES)).map(
               lambda drawn: {rule for rule, on in zip(_EXTRA_RULES, drawn) if on}),
           words=_WORD_LIST,
           block=st.integers(1, 300), passes=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           order=st.sampled_from([stemmer.SUFFIX_FIRST, stemmer.PREFIX_FIRST]), strip=st.booleans())
    # A pass-through word after the exception word shares its affixes and
    # rules, not its "exception"; "اکتاب" is recoded to "بَکتاب", which
    # the second prefix pass must not cut inside its first cluster; "کتابوں"
    # is recoded to "کتابہَ", five clusters in six code points, too short
    # for "ہَ" and its min_stem of 5; "بدنام" loses "بد", not "ب".
    @example(seed=0, n_rules=1, extra={("P", "ا", "بَ", 1), ("P", "ب", "", 1), ("S", "وں", "ہَ", None),
                                        ("S", "ہَ", "", 5), ("P", "بد", "", None)},
             words=[_EXCEPTION_WORD, "قلم", "اکتاب", "کتابوں", '"کتاب\\', "بدنام"], block=1, passes=(2, 2),
             order=stemmer.SUFFIX_FIRST, strip=False)
    def test_lines_equal_the_naive_stemmer(self, blocks_dir, seed, n_rules, extra, words, block,
                                           passes, order, strip):
        rs = random_ruleset(random.Random(seed), n_rules)[0]
        kinds = {(r.kind.value, r.pattern) for r in rs.rules}
        rules = [*rs.rules, *(AffixRule(AffixKind(kind), pattern, replacement, min_stem)
                              for kind, pattern, replacement, min_stem in sorted(extra, key=str)
                              if (kind, pattern) not in kinds)]
        rs = RuleSet(rules, {_EXCEPTION_WORD}, rs.default_min_stem)
        rules_path, words_path = blocks_dir / "naive.rules", blocks_dir / "naive.txt"
        rules_path.write_text(serialize_rule_set(rs), encoding="utf-8")
        words_path.write_bytes("".join(w + "\n" for w in words).encode("utf-8"))
        normalized = corpus.normalize("\n".join(words), strip)
        rows = _naive_results(rs, [w for w in map(str.strip, normalized.split("\n")) if w],
                              passes, order)
        argv = ["stem", str(words_path), "--pretokenized", "--rules", str(rules_path),
                "--suffix-passes", str(passes[0]), "--prefix-passes", str(passes[1]),
                "--order", order, f"--strip-diacritics={strip}"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_INPUT_BLOCK", block)
            tsv, as_json = _stdout_of(argv), _stdout_of([*argv, "--json"])
        assert tsv == (0, "".join("\t".join((row["word"], (row["prefix"] or "").strip(), row["stem"],
                                             (row["suffix"] or "").strip())) + "\n"
                                  for row in rows), "")
        assert as_json == (0, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), "")


class TestStdinNamedOnce:
    """Stdin can be read only once, so a command whose file arguments name
    ``-`` twice exits 2 before it reads anything."""

    @pytest.mark.parametrize("argv, names", [
        (["stem", "-", "--rules", "-"], "input and --rules"),
        (["stem", "--rules", "-"], "input and --rules"),
        (["stem", "-", "--rules", "-", "--pretokenized", "--json"], "input and --rules"),
        (["eval", "--rules", "-", "--gold", "-"], "--rules and --gold"),
    ], ids=["stem", "stem-default-input", "stem-pretokenized-json", "eval"])
    def test_exits_2_without_reading(self, capsys, monkeypatch, argv, names):
        stdin = io.BytesIO("S\tوں\nلڑکوں\tلڑک\n".encode("utf-8"))
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": stdin})())
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert names in err and stdin.tell() == 0


# Pieces of rule, gold, lexicon and running-text files: letters, harakat,
# ZWNJ, BOM, field and line separators (tab and LF twice, so that lines
# with several fields are common), directives and keywords, digits and
# Urdu punctuation.
_PIECES = [
    *URDU_LETTERS, *DIACRITICS, ZWNJ, "\ufeff", "\t", "\t", "\r\n", "\n", "\n", " ",
    "#", "#!exception", "#!default-min-stem", "S", "P", "noun", "verb", "adj",
    "0", "2", "۴", "۔", "،",
]
_FILE_TEXT = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestContract:
    """The module docstring's promise over arbitrary files: exit code 0, 1
    or 2, and nothing on stdout unless the code is 0."""

    @pytest.mark.parametrize("argv", [
        ("stem", "{text}", "--rules", "{rules}"),
        ("stem", "{text}", "--rules", "{rules}",
         "--strip-diacritics=false", "--json", "--suffix-passes", "2"),
        ("eval", "--rules", "{rules}", "--gold", "{gold}"),
        ("gen", "--lexicon", "{lexicon}"),
        ("rules", "validate", "--rules", "{rules}"),
    ], ids=["stem", "stem-keep-json-2", "eval", "gen", "rules-validate"])
    @settings(max_examples=100, deadline=None)
    @given(files=st.fixed_dictionaries({
        "text": _FILE_TEXT,
        "rules": st.one_of(_FILE_TEXT, st.just(data.read_text(data.DEFAULT_RULES))),
        "gold": _FILE_TEXT,
        "lexicon": st.one_of(_FILE_TEXT, st.just(data.read_text(data.GROUP1_LEXICON))),
    }))
    def test_exit_code_and_no_partial_output(self, contract_dir, argv, files):
        paths = {}
        for role, text in files.items():
            paths[role] = contract_dir / role
            paths[role].write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([arg.format(**paths) for arg in argv])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()
        assert code == 0 or out.getvalue() == ""


# Words from each sequence of three of these 18 letters: 5,832 distinct.
_DISTINCT_LETTERS = "بپتٹجچدڈرڑزسشکگلمن"


def _distinct_words(n, ending):
    return ["".join(letters) + ending for letters in islice(product(_DISTINCT_LETTERS, repeat=3), n)]


class _ShortWrites(io.RawIOBase):
    """A binary stdout that takes at most 1,000 bytes per ``write``."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.data += data[:1000]
        return min(len(data), 1000)


class _ClosingPipe(io.RawIOBase):
    """A binary stdout on the file *fd* whose reader goes away during the
    first ``write``: that call takes half of its bytes, and every later one
    raises."""

    def __init__(self, fd):
        super().__init__()
        self.calls, self._fd = 0, fd

    def writable(self):
        return True

    def fileno(self):
        return self._fd

    def write(self, data):
        self.calls += 1
        if self.calls > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(data) // 2


def _run_until_first_line(argv):
    """Exit code and stderr of the CLI after its reader closes stdout at
    the end of the first line, and that line."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "urdustem.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), err, first


class TestClosedStdout:
    """A reader that closes stdout early gets exit 141 and an empty stderr,
    whatever the size of the write it cuts short."""

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["tsv", "json"])
    def test_reader_closing_the_pipe_exits_141_quietly(self, tmp_path, mode):
        # The output, over 1 MB, is far larger than a pipe buffer, so stem is
        # still writing when its reader goes away.
        p = tmp_path / "big.txt"
        p.write_text("علاقوں کتابیں لڑکوں " * 20000 + "\n", encoding="utf-8")
        code, err, first = _run_until_first_line(
            ["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), *mode])
        assert code == EXIT_PIPE == 141
        assert err == b"" and "علاقوں".encode("utf-8") in first

    @pytest.mark.parametrize("command", ["gen", "stem-pretokenized-json"])
    def test_reader_closing_the_pipe_during_the_only_write_exits_141_quietly(self, tmp_path, command):
        # Each output, far larger than a pipe buffer, goes out in one write:
        # gen's gold for 5,000 nouns (about 0.8 MB), and the --json lines of
        # 1,000 distinct words (about 0.1 MB, from 11 KB of input: one
        # input block).
        p = tmp_path / "in.txt"
        if command == "gen":
            p.write_text("".join(f"noun\t{w}\n" for w in _distinct_words(5000, "ا")), encoding="utf-8")
            argv = ["gen", "--lexicon", str(p)]
        else:
            p.write_text("".join(w + "\n" for w in _distinct_words(1000, "وں")), encoding="utf-8")
            assert p.stat().st_size < cli._INPUT_BLOCK
            argv = ["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized", "--json"]
        code, err, first = _run_until_first_line(argv)
        assert code == EXIT_PIPE
        assert err == b"" and first.endswith(b"\n")

    def test_every_byte_of_short_writes_arrives_in_order(self, tmp_path, default_rules):
        words = _distinct_words(1500, "وں")
        p = tmp_path / "in.txt"
        p.write_text("".join(w + "\n" for w in words), encoding="utf-8")
        raw = _ShortWrites()
        with redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8")):
            code = main(["stem", str(p), "--rules", data.path(data.DEFAULT_RULES), "--pretokenized", "--json"])
        assert code == 0
        assert raw.data.decode("utf-8") == reference_output(words, default_rules, True)

    def test_one_short_write_then_a_closed_pipe_exits_141_quietly(self, tmp_path):
        # Five calls, so that a descriptor leaked by each one would show.
        p = tmp_path / "lexicon.tsv"
        p.write_text("noun\tلڑکا\n", encoding="utf-8")
        proc_fd = Path("/proc/self/fd")
        open_fds = []
        for _ in range(5):
            stderr = io.StringIO()
            with open(tmp_path / "stdout", "wb") as target:  # main points this file at devnull
                raw = _ClosingPipe(target.fileno())
                with redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8")), redirect_stderr(stderr):
                    code = main(["gen", "--lexicon", str(p)])
            assert code == EXIT_PIPE and stderr.getvalue() == ""
            assert raw.calls == 2
            if proc_fd.is_dir():
                open_fds.append(len(os.listdir(proc_fd)))
        assert len(set(open_fds)) <= 1


class TestCollectorPause:
    """``main`` runs each command with the cyclic garbage collector off, and
    turns it back on after only if it was on before.  That is safe because
    the commands make no reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("code", [0, 1, 2, EXIT_PIPE])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, code, enabled):
        text, bad, lexicon = tmp_path / "in.txt", tmp_path / "bad.rules", tmp_path / "lexicon.tsv"
        text.write_text("لڑکوں کتابیں\n", encoding="utf-8")
        bad.write_text("S\tی\tیاں\n", encoding="utf-8")
        lexicon.write_text("noun\tلڑکا\n", encoding="utf-8")
        rules = data.path(data.DEFAULT_RULES)
        argv = {0: ["stem", str(text), "--rules", rules],
                1: ["stem", str(text), "--rules", str(bad)],
                2: ["stem", str(tmp_path / "nope.txt"), "--rules", rules],
                EXIT_PIPE: ["gen", "--lexicon", str(lexicon)]}[code]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with open(tmp_path / "stdout", "wb") as target, redirect_stderr(io.StringIO()):
                # A reader that closes the pipe during the first write, as in TestClosedStdout.
                stdout = (io.TextIOWrapper(_ClosingPipe(target.fileno()), encoding="utf-8")
                          if code == EXIT_PIPE else io.StringIO())
                with redirect_stdout(stdout):
                    assert main(argv) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv", [["stem", "{text}"], ["eval", "--gold", "{gold}"],
                                      ["rules", "validate"], ["gen", "--lexicon", "{lexicon}"]],
                             ids=["stem", "eval", "rules", "gen"])
    def test_every_command_writes_with_the_collector_off(self, tmp_path, monkeypatch, argv):
        files = {"text": "لڑکوں کتابیں\n", "gold": "لڑکوں\tلڑک\n", "lexicon": "noun\tلڑکا\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        seen = []
        monkeypatch.setattr(cli, "_write", lambda text: seen.append(gc.isenabled()))
        argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
        if argv[0] != "gen":
            argv += ["--rules", data.path(data.DEFAULT_RULES)]
        assert main(argv) == 0
        assert seen and not any(seen)

    @pytest.mark.parametrize("command", ["stem", "stem-json", "stem-pretokenized", "eval"])
    def test_a_longer_input_leaves_no_more_garbage(self, tmp_path, command):
        """With the collector off, one ``main`` call on 2,000 distinct words
        leaves as many unreachable objects as one on 500 of them: argparse's
        own, a fixed number per call.  A cycle made per word would add one
        per word."""
        rng = random.Random(29)
        words = list(dict.fromkeys(random_word(rng, 3, 9) for _ in range(2500)))

        def argv(n):
            p, rules = tmp_path / f"in{n}.txt", data.path(data.DEFAULT_RULES)
            if command == "eval":
                p.write_text("".join(f"{w}\t{w}\n" for w in words[:n]), encoding="utf-8")
                return ["eval", "--rules", rules, "--gold", str(p)]
            sep = "\n" if command == "stem-pretokenized" else " "
            p.write_text(sep.join(words[:n]), encoding="utf-8")
            flags = {"stem": [], "stem-json": ["--json"], "stem-pretokenized": ["--pretokenized"]}
            return ["stem", str(p), "--rules", rules, *flags[command]]

        was = gc.isenabled()
        gc.disable()
        try:
            with open(os.devnull, "w", encoding="utf-8") as out, redirect_stdout(out):
                assert main(argv(10)) == 0  # loads what every later call reuses
                gc.collect()
                counts = []
                for n in (500, 2000):
                    assert main(argv(n)) == 0
                    counts.append(gc.collect())
        finally:
            if was:
                gc.enable()
        assert len(words) >= 2000
        assert counts[0] == counts[1]


def _stem_or_eval_argv(command, tmp_path):
    """The arguments of *command*, ``stem`` or ``eval``, on a valid input."""
    p = tmp_path / "gold.tsv"
    p.write_text("لڑکوں\tلڑک\n", encoding="utf-8")
    rules = data.path(data.DEFAULT_RULES)
    return (["stem", str(p), "--rules", rules] if command == "stem"
            else ["eval", "--rules", rules, "--gold", str(p)])


class TestPassBound:
    @pytest.mark.parametrize("value", ["-1", "5"])
    @pytest.mark.parametrize("flag", ["--suffix-passes", "--prefix-passes"])
    @pytest.mark.parametrize("command", ["stem", "eval"])
    def test_pass_count_outside_0_to_4_exits_2(self, capsys, tmp_path, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*_stem_or_eval_argv(command, tmp_path), flag, value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        # Later argparse releases quote the rejected value (3.13.13 does, 3.13.0 does not).
        assert any(err.endswith(f"error: argument {flag}: invalid choice: {shown} (choose from 0, 1, 2, 3, 4)\n")
                   for shown in (value, f"'{value}'"))


class TestBooleanFlag:
    @pytest.mark.parametrize("command", ["stem", "eval"])
    def test_a_value_that_is_not_a_boolean_exits_2(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([*_stem_or_eval_argv(command, tmp_path), "--strip-diacritics=maybe"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "expected a boolean, got 'maybe'" in err


# Pieces of a flag value: ASCII, Urdu and Arabic-Indic digits, a minus
# sign, letters, and words that some of the four flags take.
_FLAG_VALUE = st.lists(st.sampled_from([
    *"0123456789", "۰", "۴", "۵", "٠", "٤", "٥", "-", "x", "E", "ا",
    "true", "TRUE", "off", "On", "yes", "both", "suffix-first", "prefix-first",
]), min_size=1, max_size=3).map("".join)


def _int_in_0_to_4(value):
    try:
        return 0 <= int(value) <= 4
    except ValueError:
        return False


# Each flag's valid values, as README documents them.
_VALID_FLAG_VALUE = {
    "--suffix-passes": _int_in_0_to_4,
    "--prefix-passes": _int_in_0_to_4,
    "--order": lambda v: v in ("suffix-first", "prefix-first"),
    "--strip-diacritics": lambda v: v.lower() in ("true", "1", "yes", "on", "false", "0", "no", "off"),
}


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("flags")
    (d / "words.txt").write_text("لڑکوں کتابیں\n", encoding="utf-8")
    (d / "gold.tsv").write_text("لڑکوں\tلڑک\t\tوں\n", encoding="utf-8")
    return d


class TestFlagValues:
    """argparse checks each flag value, so a bad one exits 2 with the usage
    line before any file is read, here the rule file on stdin."""

    @pytest.mark.parametrize("command", ["stem", "eval"])
    @settings(max_examples=150, deadline=None)
    @given(flag=st.sampled_from(sorted(_VALID_FLAG_VALUE)), value=_FLAG_VALUE)
    @example(flag="--suffix-passes", value="۴")
    @example(flag="--prefix-passes", value="٥")
    @example(flag="--strip-diacritics", value="TRUE")
    @example(flag="--order", value="both")
    @example(flag="--order", value="--")
    @example(flag="--strip-diacritics", value="--")
    def test_a_bad_value_fails_before_any_input_is_read(self, flag_files, command, flag, value):
        argv = (["stem", str(flag_files / "words.txt"), "--rules", "-"] if command == "stem"
                else ["eval", "--rules", "-", "--gold", str(flag_files / "gold.tsv")])
        stdin = io.BytesIO("S\tوں\n".encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", type("S", (), {"buffer": stdin})()), \
                redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([*argv, f"{flag}={value}"])
            except SystemExit as exc:
                code = exc.code
        if _VALID_FLAG_VALUE[flag](value):
            assert code == 0, err.getvalue()
        else:
            assert code == 2 and out.getvalue() == ""
            assert f"error: argument {flag}" in err.getvalue() and stdin.tell() == 0

    @pytest.mark.parametrize("argv", [
        ["stem", "--rules=--"], ["eval", "--rules=--", "--gold", "-"], ["gen", "--lexicon=--"],
    ], ids=["stem-rules", "eval-rules", "gen-lexicon"])
    def test_a_file_flag_given_dashes_names_the_file_dashes(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "urdustem: --: No such file or directory\n"


def test_help_describes_the_package(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    assert "\nRule-driven affix-stripping stemmer for Urdu (Perso-Arabic script).\n" in out


# One data file per command that reads it.
_DATA_FILES = {"rules": "S\tوں\n", "eval": "لڑکوں\tلڑک\t\tوں\n", "gen": "noun\tلڑکا\n"}


def _library_run(command, text):
    """The exit code, stdout and error message of *command* on a data file
    holding *text*, from library calls on that text as it is."""
    try:
        if command == "rules":
            rs = parse_rule_file(text)
            return 0, (f"ok: {rs.suffix_count} suffixes, {rs.prefix_count} prefixes, "
                       f"{len(rs.exceptions)} exceptions\n"), ""
        if command == "eval":
            gold = evaluation.parse_gold_file(text, strip_diacritics=True)
            results = stem_batch([g.word for g in gold], data.load_rules(data.DEFAULT_RULES), StemConfig())
            report = evaluation.evaluate(results, gold)
            return 0, evaluation.summarize(report) + "\n" + evaluation.report_kv(report), ""
        lexicon = morphology.parse_lexicon_file(text)
        return 0, evaluation.gold_to_tsv(morphology.generate_gold(lexicon)), ""
    except RuleParseError as exc:
        return 1, "", str(exc)
    except (evaluation.GoldFileError, morphology.ParadigmError) as exc:
        return 2, "", str(exc)


class TestByteOrderMark:
    """The CLI drops the one leading BOM that the library drops from a data
    file, and no more: a second U+FEFF is content to both."""

    @pytest.mark.parametrize("boms", [0, 1, 2])
    @pytest.mark.parametrize("command", sorted(_DATA_FILES))
    def test_cli_reads_a_data_file_as_the_library_does(self, capsys, tmp_path, command, boms):
        text = "\ufeff" * boms + _DATA_FILES[command]
        p = tmp_path / command
        p.write_bytes(text.encode("utf-8"))
        argv = {"rules": ["rules", "validate", "--rules", str(p)],
                "eval": ["eval", "--rules", data.path(data.DEFAULT_RULES), "--gold", str(p)],
                "gen": ["gen", "--lexicon", str(p)]}[command]
        code, out, err = run(capsys, *argv)
        expected_code, expected_out, message = _library_run(command, text)
        assert (code, out) == (expected_code, expected_out)
        assert err == (f"urdustem: {p}: {message}\n" if message else "")


# Text that normalizing, tokenizing or trimming could leave empty or
# non-NFC: harakat and tatweel (stripped or kept), ZWNJ, ZWJ and Latin
# combining marks (extenders), Latin letters they compose with, Hangul jamo
# (which NFC composes), CR, tab, space and U+FEFF.  Lines are tab-joined
# fields, so that some of them are gold lines.
_WORD_CHARS = [*URDU_LETTERS, *DIACRITICS, "\u0640", ZWNJ, ZWJ, "\u0301", "\u0327", "a", "e",
               "\u1100", "\u1161", "\u11a8", "\r", "\t", " ", "\ufeff"]
_FIELD = st.text(alphabet=st.sampled_from(_WORD_CHARS), min_size=1, max_size=6)
_STEM_TEXT = st.lists(st.lists(_FIELD, min_size=1, max_size=4).map("\t".join), max_size=6).map("\n".join)


class TestWordsReachingStemBatch:
    """Every word that ``cmd_stem`` and ``cmd_eval`` pass to ``stem_batch``
    is non-empty and NFC, so ``stem_batch`` never raises ``StemError`` on
    the CLI path; the CLI's ``except StemError`` clauses are safety code."""

    @settings(max_examples=1000, deadline=None)
    @given(text=_STEM_TEXT, strip=st.booleans())
    def test_words_are_nonempty_and_nfc(self, text, strip):
        normalized = corpus.normalize(text, strip)
        words = corpus.tokenize(normalized)  # stem
        words += [w for w in map(str.strip, normalized.split("\n")) if w]  # stem --pretokenized
        try:
            words += [g.word for g in evaluation.parse_gold_file(text, strip)]  # eval
        except evaluation.GoldFileError:
            pass
        assert all(w and unicodedata.is_normalized("NFC", w) for w in words)
