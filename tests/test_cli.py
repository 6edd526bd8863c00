import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ltlx.cli import EXIT_ERROR, EXIT_NOT_WELL_FORMED, EXIT_OK, EXIT_USAGE, run

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def xml_file(tmp_path):
    def write(content, name="doc.xml"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return write


class TestCanon:
    def test_sorts_attributes(self, xml_file):
        code, out, _ = invoke("canon", xml_file('<a z="1" b="2"/>'))
        assert code == EXIT_OK
        assert out == '<a b="2" z="1"/>\n'

    def test_idempotent_at_text_level(self, xml_file):
        path = xml_file('<a z="1" b="2"><c y="2" x="1">t</c></a>')
        _, once, _ = invoke("canon", path)
        again_path = xml_file(once, "again.xml")
        _, twice, _ = invoke("canon", again_path)
        assert once == twice

    def test_parse_error_exits_1(self, xml_file):
        code, out, err = invoke("canon", xml_file("<a><b></a>"))
        assert code == EXIT_ERROR
        assert out == ""
        assert "mismatched" in err

    def test_duplicate_attribute_rejected_at_parse(self, xml_file):
        code, _, err = invoke("canon", xml_file('<a b="1" b="2"/>'))
        assert code == EXIT_ERROR
        assert "duplicate" in err

    def test_xml_declaration_flag(self, xml_file):
        code, out, _ = invoke("canon", "--xml-declaration", xml_file('<a z="1" b="2"/>'))
        assert code == EXIT_OK
        assert out == '<?xml version="1.0" encoding="UTF-8"?><a b="2" z="1"/>\n'

    def test_encoding_declaration_is_honoured(self, tmp_path):
        path = tmp_path / "latin1.xml"
        source = '<?xml version="1.0" encoding="ISO-8859-1"?>\n<doc z="é" a="ü">café</doc>'
        path.write_bytes(source.encode("iso-8859-1"))
        code, out, err = invoke("canon", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out == '<doc a="ü" z="é">café</doc>\n'


class TestEncodeDecode:
    def test_round_trip(self, xml_file):
        original = '<a href="x"><b>t</b><!--note--><?tgt data?></a>'
        code, encoded, _ = invoke("encode", xml_file(original))
        assert code == EXIT_OK
        assert "<!--" not in encoded and "<?tgt" not in encoded
        code, decoded, _ = invoke("decode", xml_file(encoded, "enc.xml"))
        assert code == EXIT_OK
        assert decoded == original + "\n"

    def test_round_trip_of_a_10_kb_attribute_with_references(self, xml_file):
        # The attribute's wrapper text reaches expat's 8192-character buffer.
        original = '<a k="' + "x&amp;" * 5000 + '">t</a>'
        code, encoded, _ = invoke("encode", xml_file(original))
        assert code == EXIT_OK
        code, decoded, err = invoke("decode", xml_file(encoded, "enc.xml"))
        assert (code, err) == (EXIT_OK, "")
        assert decoded == original + "\n"

    def test_sentinel_override_flag(self, xml_file):
        code, out, _ = invoke(
            "encode", "--sentinels", "E100,E101,E102", xml_file("<a><?p d?></a>")
        )
        assert code == EXIT_OK
        assert "" in out

    def test_sentinel_env_variable(self, xml_file, monkeypatch):
        monkeypatch.setenv("LTL_SENTINELS", "E200,E201,E202")
        code, out, _ = invoke("encode", xml_file("<a><?p d?></a>"))
        assert code == EXIT_OK
        assert "" in out

    def test_bad_sentinel_option(self, xml_file):
        code, _, err = invoke("encode", "--sentinels", "nope", xml_file("<a/>"))
        assert code == EXIT_ERROR
        assert "sentinel" in err

    def test_collision_reported(self, xml_file):
        code, _, err = invoke(
            "encode", "--sentinels", "61,62,63", xml_file("<x>abc</x>")
        )
        assert code == EXIT_ERROR
        assert "sentinel" in err.lower()


class TestQuery:
    DOC = "<a><q><p>hello</p></q><p>world</p></a>"

    def test_first_descendant_text(self, xml_file):
        code, out, _ = invoke("query", "-p", "//p#1/#", xml_file(self.DOC))
        assert code == EXIT_OK
        assert out == "hello\n"

    def test_all_solutions_default(self, xml_file):
        code, out, _ = invoke("query", "-p", "//p/#", xml_file(self.DOC))
        assert code == EXIT_OK
        assert out == "hello\nworld\n"

    def test_first_only_flag(self, xml_file):
        code, out, _ = invoke(
            "query", "-p", "//p/#", "--solutions", "first", xml_file(self.DOC)
        )
        assert out == "hello\n"

    def test_node_results_serialized(self, xml_file):
        code, out, _ = invoke("query", "-p", "//p", xml_file(self.DOC))
        assert out == "<p>hello</p>\n<p>world</p>\n"

    def test_xml_declaration_prefixes_each_node_result_only(self, xml_file):
        path = xml_file(self.DOC)
        code, out, _ = invoke("query", "-p", "//p", "--xml-declaration", path)
        assert code == EXIT_OK
        declaration = '<?xml version="1.0" encoding="UTF-8"?>'
        assert out == f"{declaration}<p>hello</p>\n{declaration}<p>world</p>\n"
        _, out, _ = invoke("query", "-p", "//p#", "--xml-declaration", path)
        assert out == "hello\nworld\n"

    def test_no_coerce_text_makes_text_step_fail_on_elements(self, xml_file):
        path = xml_file(self.DOC)
        code, out, _ = invoke("query", "-p", "//p#", "--no-coerce-text", path)
        assert (code, out) == (EXIT_OK, "")
        code, out, _ = invoke("query", "-p", "//p child#", "--no-coerce-text", path)
        assert (code, out) == (EXIT_OK, "hello\nworld\n")

    def test_count_result(self, xml_file):
        code, out, _ = invoke("query", "-p", "count", xml_file(self.DOC))
        assert out == "2\n"

    def test_lvl_result_rendered_as_index_list(self, xml_file):
        code, out, _ = invoke("query", "-p", "//p lvl", xml_file(self.DOC))
        assert out == "[1,1]\n[2]\n"

    def test_a_long_text_is_one_result(self, xml_file):
        code, out, _ = invoke("query", "-p", "//a#", xml_file("<a>" + "x&amp;" * 5000 + "</a>"))
        assert (code, out) == (EXIT_OK, "x&" * 5000 + "\n")

    def test_bad_path_is_usage_independent_error(self, xml_file):
        code, _, err = invoke("query", "-p", "//", xml_file(self.DOC))
        assert code == EXIT_ERROR


class TestTransform:
    def test_shared_child_sample_exits_3_with_output(self):
        code, out, _ = invoke(
            "transform",
            "-r",
            str(SAMPLES / "shared_child" / "rules.ltl"),
            str(SAMPLES / "shared_child" / "input.xml"),
        )
        assert code == EXIT_NOT_WELL_FORMED
        assert out == "w\n"

    def test_well_formed_output_exits_0(self):
        code, out, _ = invoke(
            "transform",
            "-r",
            str(SAMPLES / "item_list" / "rules.ltl"),
            str(SAMPLES / "item_list" / "input.xml"),
        )
        assert code == EXIT_OK
        assert out == "<ul><li>one</li><li>two</li></ul>\n"

    @pytest.mark.parametrize(
        "options, dishes",
        [
            ((), "<hot>Chili</hot>"),
            (("--solutions", "all"), "<hot>Chili</hot><hot>Curry</hot>"),
            (("--no-coerce-text",), ""),  # /name# reads no text from an element
        ],
    )
    def test_attr_guard_sample(self, options, dishes):
        # An @flag guard, a /name# goal and a text(N) passthrough, as CI runs them.
        code, out, err = invoke(
            "transform",
            *options,
            "-r",
            str(SAMPLES / "attr_guard" / "rules.ltl"),
            str(SAMPLES / "attr_guard" / "input.xml"),
        )
        expected = f"<menu><h1>Menu</h1><ul>{dishes}<dish>Soup</dish><dish>Bread</dish></ul></menu>\n"
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_attribute_guard_skips_text_nodes(self, xml_file, tmp_path):
        # A variable head meets the text node too; @flag finds nothing there.
        rules = tmp_path / "guard.ltl"
        rules.write_text("template(X,[element(f,[],[])]):-transform(X@flag,F).", encoding="utf-8")
        code, out, err = invoke("transform", "-r", str(rules), xml_file('<doc><a flag="1"/>tail</doc>'))
        assert (code, out, err) == (EXIT_OK, "<f/>\n", "")

    # The root must be an XML Name (XML 1.0, section 2.3); any other is a usage error.
    @pytest.mark.parametrize(
        "name, wrapped",
        [
            ("result", True), ("a-b", True), ("x:y", True), ("é", True),
            ("a b", False), ("", False), ("1a", False),
        ],
    )
    def test_wrap_root_makes_hedge_serializable(self, xml_file, name, wrapped):
        code, out, err = invoke(
            "transform",
            "-r",
            str(SAMPLES / "text_identity" / "rules.ltl"),
            "--wrap-root",
            name,
            str(SAMPLES / "text_identity" / "input.xml"),
        )
        if wrapped:
            assert code == EXIT_NOT_WELL_FORMED
            assert out.startswith(f"<{name}>") and out.endswith(f"</{name}>\n")
        else:
            assert (code, out) == (EXIT_USAGE, "")
            assert f"argument --wrap-root: not an XML name: {name!r}" in err
            # argparse's usage block comes first; the message is the last line.
            assert err.splitlines()[-1] == f"ltlx transform: error: argument --wrap-root: not an XML name: {name!r}"

    def test_output_file(self, xml_file, tmp_path):
        target = tmp_path / "out.xml"
        code, out, _ = invoke(
            "transform",
            "-r",
            str(SAMPLES / "item_list" / "rules.ltl"),
            "-o",
            str(target),
            str(SAMPLES / "item_list" / "input.xml"),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == "<ul><li>one</li><li>two</li></ul>\n"

    def test_all_solutions_flag(self, xml_file, tmp_path):
        rules = tmp_path / "many.ltl"
        rules.write_text(
            "template(element(d,_,[A]),[text(T)]):-A=element(k,_,_),transform(A//p/#,T)."
        )
        doc = xml_file("<d><k><p>x</p><p>y</p></k></d>")
        _, first, _ = invoke("transform", "-r", str(rules), doc)
        assert first == "x\n"
        _, every, _ = invoke("transform", "-r", str(rules), "--solutions", "all", doc)
        assert every == "xy\n"

    def test_xml_declaration_prefixes_the_output(self):
        code, out, _ = invoke(
            "transform",
            "-r",
            str(SAMPLES / "item_list" / "rules.ltl"),
            "--xml-declaration",
            str(SAMPLES / "item_list" / "input.xml"),
        )
        assert code == EXIT_OK
        assert out == '<?xml version="1.0" encoding="UTF-8"?><ul><li>one</li><li>two</li></ul>\n'

    def test_no_coerce_text_binds_element_results(self, xml_file, tmp_path):
        rules = tmp_path / "coerce.ltl"
        rules.write_text(
            "template(element(d,_,[A]),[element(node,[],[T])]):-\n"
            "   transform(A//p,T),T=element(_,_,_).\n"
            "template(element(d,_,[A]),[text(T)]):-transform(A//p,T).\n"
        )
        doc = xml_file("<d><k><p>x</p></k></d>")
        assert invoke("transform", "-r", str(rules), doc)[:2] == (EXIT_NOT_WELL_FORMED, "x\n")
        assert invoke("transform", "-r", str(rules), "--no-coerce-text", doc)[:2] == (
            EXIT_OK,
            "<node><p>x</p></node>\n",
        )

    def test_default_copy_text_copies_unmatched_text(self, xml_file, tmp_path):
        rules = tmp_path / "em.ltl"
        rules.write_text("template(element(em,_,_),[element(x,[],[])]).")
        doc = xml_file("<doc>a<em>b</em>c</doc>")
        assert invoke("transform", "-r", str(rules), doc)[:2] == (EXIT_OK, "<x/>\n")
        assert invoke("transform", "-r", str(rules), "--default-copy-text", doc)[:2] == (
            EXIT_NOT_WELL_FORMED,
            "a<x/>c\n",
        )

    def test_rule_load_error_exits_1(self, xml_file, tmp_path):
        bad = tmp_path / "bad.ltl"
        bad.write_text("template(element(a,_,_),[text(T)]).")
        code, _, err = invoke("transform", "-r", str(bad), xml_file("<a/>"))
        assert code == EXIT_ERROR
        assert "T" in err

    def test_missing_file_exits_1(self):
        code, _, err = invoke("canon", "/no/such/file.xml")
        assert code == EXIT_ERROR


class TestMetrics:
    def test_report_contains_census_header_and_values(self, tmp_path):
        code, out, _ = invoke(
            "metrics", str(SAMPLES / "shared_child" / "rules.ltl")
        )
        assert code == EXIT_OK
        assert out.startswith("# census:")
        assert "N_T" in out and "lambda" in out

    def test_machine_output(self, tmp_path):
        script = tmp_path / "identity.ltl"
        script.write_text("template(text(X),[text(X)]).")
        code, out, _ = invoke("metrics", str(script), "--machine")
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["eta1"] == "3"
        assert values["eta2"] == "1"
        assert values["n1_total"] == "4"
        assert values["n2_total"] == "2"

    def test_machine_output_of_a_not_goal(self, tmp_path):
        # Operators: template, [|], text, :-, ",", not, transform (twice),
        # @, /, # (10 distinct, 11 in all).  Operands: X (three times),
        # N (twice), flag, _, name (5 distinct, 8 in all).
        script = tmp_path / "not.ltl"
        script.write_text("template(X,[text(N)]):-not(transform(X@flag,_)),transform(X/name#,N).")
        code, out, _ = invoke("metrics", str(script), "--machine")
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert code == EXIT_OK
        assert [values[k] for k in ("eta1", "eta2", "n1_total", "n2_total")] == ["10", "5", "11", "8"]

    def test_xslt_dialect(self):
        code, out, _ = invoke(
            "metrics",
            str(SAMPLES / "shared_child" / "stylesheet.xsl"),
            "--dialect",
            "xslt",
            "--machine",
        )
        assert code == EXIT_OK
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert int(values["eta1"]) >= 3


class TestRelalg:
    def test_union_sorted_output(self):
        code, out, _ = invoke(
            "relalg", "-r", str(SAMPLES / "relations" / "facts.ltl"), "-e", "union(r,s)"
        )
        assert code == EXIT_OK
        assert out == "1,a\n2,b\n3,c\n4,d\n"

    def test_nested_expression(self):
        code, out, _ = invoke(
            "relalg",
            "-r",
            str(SAMPLES / "relations" / "facts.ltl"),
            "-e",
            "project(difference(r,s),[2])",
        )
        assert out == "a\nc\n"

    def test_unknown_relation_exits_1(self):
        code, _, err = invoke(
            "relalg", "-r", str(SAMPLES / "relations" / "facts.ltl"), "-e", "union(r,zz)"
        )
        assert code == EXIT_ERROR
        assert "zz" in err
        code, out, err = invoke(
            "relalg", "-r", str(SAMPLES / "relations" / "facts.ltl"), "-e", "rename(r,[1])"
        )
        assert (code, out, err) == (EXIT_ERROR, "", "ltlx: error: rename needs an atom or string name\n")

    def test_identical_invocations_bit_identical(self):
        args = (
            "relalg",
            "-r",
            str(SAMPLES / "relations" / "facts.ltl"),
            "-e",
            "cartesian(r,s)",
        )
        assert invoke(*args) == invoke(*args)


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        code, _, _ = invoke()
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        code, _, err = invoke("canon", "--frobnicate", "x.xml")
        assert code == EXIT_USAGE
        assert err.splitlines()[-1] == "ltlx: error: unrecognized arguments: --frobnicate"

    def test_usage_and_help_go_to_the_given_streams(self, capsys):
        code, out, err = invoke("query", "x.xml")  # -p is missing
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: ltlx query") and "-p/--path" in err
        code, out, err = invoke("--help")
        assert code == EXIT_OK and err == ""
        assert out.startswith("usage: ltlx") and "transform" in out
        assert capsys.readouterr() == ("", "")  # nothing on the process's own streams

    def test_stdin_dash(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('<a z="1" b="2"/>'))
        code, out, _ = invoke("canon", "-")
        assert code == EXIT_OK
        assert out == '<a b="2" z="1"/>\n'


def child_process(*argv, preexec_fn=None, **env):
    """Run `python -m ltlx.cli` in a fresh interpreter, capturing its output."""
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **env)
    return subprocess.run(
        [sys.executable, "-m", "ltlx.cli", *argv], env=env, capture_output=True, timeout=120, preexec_fn=preexec_fn
    )


def run_process(*argv, preexec_fn=None, **env):
    """Run `python -m ltlx.cli` in a fresh interpreter; return (exit code, stderr)."""
    proc = child_process(*argv, preexec_fn=preexec_fn, **env)
    return proc.returncode, proc.stderr.decode("utf-8", "replace")


class TestDeepInput:
    """Only the engine still recurses; the other subcommands take any depth."""

    def test_100000_level_chain_through_canon_encode_decode_and_query(self, tmp_path):
        depth = 100_000
        doc = tmp_path / "chain.xml"
        doc.write_text("<a>" * depth + "x" + "</a>" * depth, encoding="utf-8")
        canon, encoded, decoded = (tmp_path / f"{name}.xml" for name in ("canon", "enc", "dec"))
        for argv in (
            ("canon", str(doc), "-o", str(canon)),
            ("encode", str(doc), "-o", str(encoded)),
            ("decode", str(encoded), "-o", str(decoded)),
            ("query", "-p", "//a#1 count", str(doc), "-o", str(tmp_path / "count.txt")),
        ):
            code, err = run_process(*argv)
            assert code == EXIT_OK and "Traceback" not in err, (argv, err)
        assert decoded.read_bytes() == canon.read_bytes() == doc.read_bytes() + b"\n"
        assert (tmp_path / "count.txt").read_text(encoding="utf-8") == "1\n"

    def test_100000_level_chain_through_the_default_descent(self, tmp_path):
        # No rule fires on an a element, so the engine descends to the text.
        depth = 100_000
        doc, out = tmp_path / "chain.xml", tmp_path / "out.xml"
        doc.write_text("<a>" * depth + "x" + "</a>" * depth, encoding="utf-8")
        rules, empty = tmp_path / "text.ltl", tmp_path / "empty.ltl"
        rules.write_text("template(text(T),[element(t,[],[text(T)])]).\n", encoding="utf-8")
        empty.write_text("", encoding="utf-8")
        for argv, exit_code, written in (
            (("-r", str(rules)), EXIT_OK, "<t>x</t>\n"),
            (("-r", str(empty), "--default-copy-text"), EXIT_NOT_WELL_FORMED, "x\n"),
        ):
            code, err = run_process("transform", *argv, str(doc), "-o", str(out))
            assert code == exit_code and "Traceback" not in err, (argv, err)
            assert out.read_text(encoding="utf-8") == written

    def test_490_level_chain_through_a_not_rule(self, tmp_path):
        # The not/1 goal runs in a function of its own that returns before
        # the template/2 goal, so the chain costs two frames a level, as
        # through any rule: `_emit` and the rule's function.
        rules = tmp_path / "chain.ltl"
        rules.write_text(
            "template(element(sec,_,[element(t,_,[text(T)]),S]),[element(s,[],[text(T),O])]):-\n"
            "   not(S=text(_)),template(S,[O]).\n"
            "template(element(sec,_,[element(t,_,[text(T)])]),[element(s,[],[text(T)])]).\n",
            encoding="utf-8",
        )
        depth = 490
        doc, out = tmp_path / "chain.xml", tmp_path / "out.xml"
        doc.write_text("".join(f"<sec><t>{i}</t>" for i in range(depth)) + "</sec>" * depth, encoding="utf-8")
        code, err = run_process("transform", "-r", str(rules), str(doc), "-o", str(out))
        assert code == EXIT_OK, err
        expected = "".join(f"<s>{i}" for i in range(depth)) + "</s>" * depth + "\n"
        assert out.read_text(encoding="utf-8") == expected


class TestNoTraceback:
    """Failures the program does not report itself still end in one diagnostic line."""

    def assert_one_line_error(self, code, err):
        assert code == EXIT_ERROR
        assert "Traceback" not in err
        assert err.startswith("ltlx: error: ") and err.count("\n") == 1, err

    def test_running_out_of_memory(self, tmp_path):
        # 60**4 solutions in all-solutions mode outgrow the child's own address space, capped at 400 MB.
        resource = pytest.importorskip("resource")
        rules, doc, out = tmp_path / "four.ltl", tmp_path / "r.xml", tmp_path / "out.xml"
        goals = ",".join(f"transform(X/k#,{v})" for v in "ABCD")
        rules.write_text(
            f"template(X,[element(o,[],[text(A),text(B),text(C),text(D)])]):-X=element(r,_,_),{goals}.\n",
            encoding="utf-8",
        )
        doc.write_text("<r>" + "<k>x</k>" * 60 + "</r>", encoding="utf-8")
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))  # noqa: E731
        argv = ("transform", "--solutions", "all", "-r", str(rules), str(doc), "-o", str(out))
        code, err = run_process(*argv, preexec_fn=cap)
        self.assert_one_line_error(code, err)
        assert err == "ltlx: error: out of memory\n" and not out.exists()

    def test_running_out_of_memory_in_relalg(self, tmp_path):
        # 300**4 rows of a product of products outgrow the child's own address space, capped at 400 MB.
        resource = pytest.importorskip("resource")
        facts = tmp_path / "facts.ltl"
        facts.write_text("".join(f"r({i},{i + 1}).\n" for i in range(300)), encoding="utf-8")
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))  # noqa: E731
        argv = ("relalg", "-r", str(facts), "-e", "cartesian(cartesian(r,r),cartesian(r,r))")
        proc = child_process(*argv, preexec_fn=cap)
        assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_ERROR, b"ltlx: error: out of memory\n", b"")

    def test_output_the_stdout_encoding_cannot_hold(self, tmp_path):
        path = tmp_path / "latin1.xml"
        source = '<?xml version="1.0" encoding="ISO-8859-1"?>\n<doc z="é" a="ü">café</doc>'
        path.write_bytes(source.encode("iso-8859-1"))
        self.assert_one_line_error(*run_process("canon", str(path), PYTHONIOENCODING="ascii"))

    def test_section_chain_too_deep_for_the_engine(self, tmp_path):
        rules = tmp_path / "chain.ltl"
        rules.write_text(
            "template(element(sec,_,[element(t,_,[text(T)]),S]),[element(s,[],[text(T),O])]):-\n"
            "   template(S,[O]).\n"
            "template(element(sec,_,[element(t,_,[text(T)])]),[element(s,[],[text(T)])]).\n",
            encoding="utf-8",
        )
        depth = 600
        doc = tmp_path / "chain.xml"
        doc.write_text(
            "".join(f"<sec><t>{i}</t>" for i in range(depth)) + "</sec>" * depth,
            encoding="utf-8",
        )
        self.assert_one_line_error(*run_process("transform", "-r", str(rules), str(doc)))

    @pytest.mark.parametrize(
        "rules, message",
        [
            (
                'template(element(a,_,_),[element(b,[k="1",k="2"],[])]).',
                "rule at line 1: output element b writes attribute k twice",
            ),
            (
                'template(element(a,[K=V],_),[element(b,[k="1",K=V],[])]).',
                "duplicate attribute 'k' on element 'b'",
            ),
        ],
    )
    def test_repeated_output_attribute(self, tmp_path, rules, message):
        path = tmp_path / "dup.ltl"
        path.write_text(rules, encoding="utf-8")
        doc = tmp_path / "doc.xml"
        doc.write_text('<a k="x"/>', encoding="utf-8")
        code, err = run_process("transform", "-r", str(path), str(doc))
        self.assert_one_line_error(code, err)
        assert err == f"ltlx: error: {message}\n"

    def test_comment_and_pi_that_cannot_be_written(self, tmp_path):
        rules = tmp_path / "bad.ltl"
        rules.write_text(
            'template(element(a,_,_),[element(r,[],[comment("x--y"),pi("t ?> z")])]).', encoding="utf-8"
        )
        doc, encoded = tmp_path / "doc.xml", tmp_path / "encoded.xml"
        doc.write_text("<a/>", encoding="utf-8")
        encoded.write_text("<r>\ue001x--y</r>", encoding="utf-8")  # U+E001 marks an encoded comment
        for argv in (("transform", "-r", str(rules), str(doc)), ("decode", str(encoded))):
            code, out, err = invoke(*argv)
            self.assert_one_line_error(code, err)
            assert out == "" and "cannot be written" in err, argv

    def test_external_entity_reference(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text('<!DOCTYPE r [<!ENTITY e SYSTEM "file:///etc/hostname">]><r>&e;</r>', encoding="utf-8")
        code, out, err = invoke("canon", str(doc))
        self.assert_one_line_error(code, err)
        assert out == "" and err == "ltlx: error: 1:60: error in processing external entity reference\n"

    def test_index_zero_in_a_query(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><p>x</p></a>", encoding="utf-8")
        code, err = run_process("query", "-p", "#0", str(doc))
        self.assert_one_line_error(code, err)
        assert "1:1: index selector is 1-based" in err

    def test_non_decimal_digit_in_a_fact_file(self, tmp_path):
        facts = tmp_path / "facts.ltl"
        facts.write_text("r(²).\n", encoding="utf-8")
        code, err = run_process("relalg", "-r", str(facts), "-e", "r")
        self.assert_one_line_error(code, err)
        assert "unexpected character '²'" in err

    @pytest.mark.parametrize("raw", ["E000,E000,E001", "FFFFFFFFFFFFFFFFFFFF,E001,E002"])
    def test_bad_sentinels_by_flag_or_environment(self, tmp_path, raw):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a/>", encoding="utf-8")
        self.assert_one_line_error(*run_process("encode", "--sentinels", raw, str(doc)))
        self.assert_one_line_error(*run_process("decode", str(doc), LTL_SENTINELS=raw))
