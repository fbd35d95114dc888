import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tokembed.features import (ResourceBundle, build_char_ngram_index,
                               extended_feature_width, extended_features,
                               load_brown_clusters, load_char_ngram_index,
                               load_name_list, load_tag_dictionary,
                               pair_features, save_char_ngram_index,
                               word_feature_rule, word_features)

# ---------------------------------------------------------------------------
# Canonical word-feature corpus.  Every expectation below was derived by hand
# from the rule list (first match wins); rule indices are 0-based.  Inline
# comments flag the rule-shadowing pairs (a string that would also match a
# later rule).
# ---------------------------------------------------------------------------

CANONICAL = [
    # rule 0: starts with @, length > 1
    ("@bob", 0), ("@a", 0), ("@mention", 0), ("@RT", 0), ("@rt", 0),
    ("@123", 0), ("@user_name", 0), ("@B0b", 0), ("@x1", 0), ("@jack", 0),
    ("@twitter_user", 0), ("@cnn", 0), ("@nasa", 0), ("@longhandle123", 0),
    ("@with-dash", 0),
    ("@$", 0),        # shadows rule 5 (contains $) and rule 9 (all punctuation)
    ("@$$", 0),       # shadows rules 5 and 9
    ("@...", 0),      # shadows rule 9
    ("@@", 0),        # shadows rule 9
    ("@.", 0),        # shadows rule 9
    ("@:", 0),        # shadows rule 9
    ("@!!!", 0),      # shadows rule 9
    ("@#tag", 0),
    ("@www.com", 0),
    ("@http://x.com", 0),
    # rule 1: starts with #, length > 1
    ("#yolo", 1), ("#1", 1), ("#123", 1), ("#rt", 1), ("#RT", 1),
    ("#hashTag", 1), ("#x", 1), ("#a1b2", 1), ("#breaking", 1),
    ("#nowplaying", 1), ("#ff", 1), ("#2024", 1),
    ("#$", 1),        # shadows rules 5 and 9
    ("#...", 1),      # shadows rule 9
    ("##", 1),        # shadows rule 9
    ("#!", 1),        # shadows rule 9
    ("#:", 1),        # shadows rule 9
    # rule 2: lowercases to "rt" (the only four such strings)
    ("rt", 2), ("RT", 2), ("Rt", 2), ("rT", 2),
    # rule 3: URL pattern
    ("http://example.com", 3), ("https://example.com", 3),
    ("HTTP://X.COM", 3), ("https://t.co/abc123", 3),
    ("www.example.com", 3), ("www.a.b", 3), ("Www.Site.Com", 3),
    ("WWW.EXAMPLE.COM", 3), ("http://123.45.67.89", 3),
    ("www.site.com/page?q=1", 3), ("http://a", 3),
    ("https://sub.domain.org/path", 3), ("http://bit.ly/x", 3),
    ("www.m.me", 3),
    ("https://$ite.com", 3),   # shadows rule 5 (contains $)
    # rule 4: ASCII digits only
    ("2", 4), ("0", 4), ("123", 4), ("00742", 4), ("9999999999", 4),
    ("42", 4), ("7", 4), ("1000000", 4), ("911", 4), ("2024", 4),
    ("10", 4), ("365", 4),
    # rule 5: contains $
    ("$5", 5), ("5$", 5), ("US$", 5), ("$$$", 5), ("A$AP", 5),
    ("$money", 5), ("$1.99", 5), ("price$", 5), ("$0.99", 5), ("Ke$ha", 5),
    ("$", 5),         # shadows rule 8 (single punctuation)
    ("$$", 5),        # shadows rule 9
    ("$-", 5),        # shadows rule 9
    ("$:", 5),        # shadows rule 9
    ("$...", 5),      # shadows rule 9
    # rule 6: exactly ":"
    (":", 6),         # shadows rule 8 (which excludes ":" anyway)
    # rule 7: ellipsis (runs of two or more dots, or the single-char form)
    ("...", 7),       # shadows rule 9 (which excludes ellipses)
    ("..", 7), ("....", 7), (".....", 7), ("…", 7),
    # rule 8: single punctuation character, not ":" or "$"
    (".", 8), (",", 8), ("!", 8), ("?", 8), (";", 8), ("-", 8),
    ("(", 8), (")", 8), ('"', 8), ("'", 8), ("*", 8), ("&", 8),
    ("/", 8), ("\\", 8), ("[", 8), ("]", 8), ("{", 8), ("}", 8),
    ("%", 8), ("+", 8), ("=", 8), ("<", 8), (">", 8), ("^", 8),
    ("_", 8), ("`", 8), ("|", 8), ("~", 8),
    ("@", 8),         # too short for rule 0
    ("#", 8),         # too short for rule 1
    # rule 9: multi-character punctuation, not an ellipsis
    ("!!", 9), ("!!!", 9), ("!!!!", 9), ("?!", 9), ("??", 9), ("????", 9),
    (",,", 9), ("--", 9), ("---", 9), (")(", 9), ("))", 9), ("::", 9),
    (":-)", 9), (":)", 9), ("[]", 9), ("(!)", 9), (".,", 9), (".?!", 9),
    ("-->", 9), ("__", 9), ("''", 9), ('""', 9), ("~~", 9), ("!?!", 9),
    ("...!", 9), (".!.", 9), ("^^", 9), ("%)", 9), ("*-*", 9), ("<<", 9),
    (">>", 9), ("+-", 9),
    # no rule applies
    ("word", None), ("Hello", None), ("HELLO", None), ("cat", None),
    ("dog42", None), ("42dog", None), ("a", None), ("I", None),
    ("é", None), ("café", None), ("naïve", None),
    ("re-do", None), ("can't", None), ("it's", None), ("http", None),
    ("https", None), ("www", None), ("wwww.com", None), ("http:/", None),
    ("http://", None), ("www.", None), ("rt.", None), ("rts", None),
    ("art", None), ("1a", None), ("a1", None), ("1.5", None),
    ("3,000", None), ("o.O", None), ("D1g1t5", None), ("_x_", None),
    ("<3", None), (":D", None), (":-P", None),
    ("½", None),            # vulgar fraction, not an ASCII digit
    ("²", None),            # superscript two, not an ASCII digit
    ("١٢٣", None),  # Arabic-Indic digits, not ASCII
    ("ABC", None), ("tweet", None), ("follower", None), ("so", None),
    ("2pm", None), ("4u", None), ("B4", None), ("gr8", None), ("w/", None),
    ("y'all", None), ("lol", None), ("омг", None),
    ("misc.", None), ("u", None), ("ur", None), ("ya", None), ("dis", None),
    ("dat", None), ("tho", None), ("bc", None), ("rn", None), ("omg", None),
    ("lmao", None), ("smh", None), ("idk", None), ("img.jpg", None),
    ("e.g", None), ("Mr", None), ("Mrs", None), ("St", None),
]


def test_canonical_corpus_size():
    tokens = [t for t, _ in CANONICAL]
    assert len(tokens) == len(set(tokens)), "canonical corpus has duplicates"
    assert len(tokens) >= 200


@pytest.mark.parametrize("token,expected", CANONICAL,
                         ids=[repr(t) for t, _ in CANONICAL])
def test_word_features_canonical(token, expected):
    vec = word_features(token)
    want = np.zeros(10, dtype=np.float32)
    if expected is not None:
        want[expected] = 1.0
    assert np.array_equal(vec, want), (token, word_feature_rule(token))


def test_word_features_at_most_one_bit_exhaustive():
    for token, _ in CANONICAL:
        assert word_features(token).sum() <= 1.0


@given(st.text(min_size=1, max_size=12))
def test_word_features_at_most_one_bit_random(token):
    v = word_features(token)
    assert v.sum() <= 1.0
    assert np.array_equal(v, word_features(token))


def test_word_features_empty_token_rejected():
    with pytest.raises(ValueError):
        word_features("")


# ---------------------------------------------------------------------------
# Pair features, checked against an independent reimplementation built from
# the feature definitions: i/n, j/n, distance buckets {1, 2, 3-5, 6-10, 11+},
# direction indicators, and a wall flag that zeroes everything but the first
# and last entries.
# ---------------------------------------------------------------------------


def reference_pair_features(i, j, n):
    out = [0.0] * 10
    out[0] = i / n
    if j == 0:
        out[9] = 1.0
        return out
    out[1] = j / n
    delta = abs(i - j)
    if delta == 1:
        out[2] = 1.0
    elif delta == 2:
        out[3] = 1.0
    elif 3 <= delta <= 5:
        out[4] = 1.0
    elif 6 <= delta <= 10:
        out[5] = 1.0
    else:
        out[6] = 1.0
    if i < j:
        out[7] = 1.0
    else:
        out[8] = 1.0
    return out


def test_pair_features_hand_cases():
    assert np.allclose(pair_features(2, 5, 10),
                       [0.2, 0.5, 0, 0, 1, 0, 0, 1, 0, 0])
    assert np.allclose(pair_features(3, 0, 10),
                       [0.3, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert np.allclose(pair_features(7, 6, 8),
                       [0.875, 0.75, 1, 0, 0, 0, 0, 0, 1, 0])


def test_pair_features_exhaustive_matches_reference():
    for n in range(1, 9):
        for i in range(1, n + 1):
            for j in range(0, n + 1):
                if i == j:
                    continue
                assert np.array_equal(pair_features(i, j, n),
                                      reference_pair_features(i, j, n)), (i, j, n)


def test_pair_features_large_distances():
    v = pair_features(1, 12, 20)
    assert v[6] == 1.0  # distance 11 lands in the top bucket
    assert np.array_equal(pair_features(1, 12, 20),
                          reference_pair_features(1, 12, 20))


@given(st.integers(1, 30), st.integers(0, 30), st.integers(1, 30))
def test_pair_features_position_entries_bounded(i, j, n):
    i = min(i, n)
    if j > n or i == j:
        j = 0
    v = pair_features(i, j, n)
    assert 0.0 <= v[0] <= 1.0
    assert 0.0 <= v[1] <= 1.0
    if j > 0:
        assert v[2:7].sum() == 1.0
        assert v[7] + v[8] == 1.0


def test_pair_features_errors():
    with pytest.raises(ValueError):
        pair_features(2, 2, 5)
    with pytest.raises(ValueError):
        pair_features(0, 1, 5)
    with pytest.raises(ValueError):
        pair_features(1, 6, 5)


# ---------------------------------------------------------------------------
# Extended feature stack
# ---------------------------------------------------------------------------


@pytest.fixture
def resources():
    return ResourceBundle(
        brown_clusters={"the": "0010110101", "cat": "110010", "sat": "1101"},
        tag_dictionary={"the": {"DT": 90, "NN": 2},
                        "cat": {"NN": 50, "VB": 50, "JJ": 10, "RB": 5}},
        name_lists=[frozenset({"alice", "bob"}), frozenset({"paris"})],
        char_ngrams={"th": 0, "he": 1, "the": 2, "at": 3},
    )


def test_extended_width_is_pure_function_of_resources(resources):
    width = extended_feature_width(resources)
    for tokens, j in ([["the", "cat", "sat"], 1], [["alice"], 0], [["zzz", "qqq"], 0]):
        assert len(extended_features(tokens, j, resources)) == width


def test_extended_deterministic(resources):
    a = extended_features(["the", "cat", "sat"], 1, resources)
    b = extended_features(["the", "cat", "sat"], 1, resources)
    assert np.array_equal(a, b)


def test_extended_unknown_word_has_zero_brown_and_tag_blocks(resources):
    block = extended_features(["zzz"], 0, resources)
    prefix_width = sum(len(resources.prefix_index[k]) for k in (2, 4, 6, 8))
    tag_width = 3 * len(resources.dict_tags)
    assert np.array_equal(block[:prefix_width + tag_width],
                          np.zeros(prefix_width + tag_width))


def test_extended_ngram_counts(resources):
    v = extended_features(["the"], 0, resources)
    grams = v[-len(resources.char_ngrams):]
    # "the": bigrams th, he; trigram the; no "at"
    assert grams[resources.char_ngrams["th"]] == 1.0
    assert grams[resources.char_ngrams["he"]] == 1.0
    assert grams[resources.char_ngrams["the"]] == 1.0
    assert grams[resources.char_ngrams["at"]] == 0.0
    v2 = extended_features(["ththe"], 0, resources)
    grams2 = v2[-len(resources.char_ngrams):]
    assert grams2[resources.char_ngrams["th"]] == 2.0
    assert grams2[resources.char_ngrams["the"]] == 1.0


def test_extended_name_list_bits(resources):
    v = extended_features(["alice"], 0, resources)
    names = v[-len(resources.char_ngrams) - 2:-len(resources.char_ngrams)]
    assert np.array_equal(names, [1.0, 0.0])
    v = extended_features(["paris"], 0, resources)
    names = v[-len(resources.char_ngrams) - 2:-len(resources.char_ngrams)]
    assert np.array_equal(names, [0.0, 1.0])


def test_extended_top_tags_tie_break(resources):
    # "cat": NN and VB tie at 50; ties break by tag order in the sorted
    # dictionary tagset, so NN (earlier) ranks first.
    assert resources.top_tags("cat") == ["NN", "VB", "JJ"]
    assert resources.top_tags("the") == ["DT", "NN"]
    assert resources.top_tags("zzz") == []


def test_extended_capitalization_bit(resources):
    v_cap = extended_features(["The"], 0, resources)
    v_low = extended_features(["the"], 0, resources)
    block = resources.word_block_width()
    # capitalization is the last slot of the center word block
    assert v_cap[block - 1] == 1.0
    assert v_low[block - 1] == 0.0


def test_extended_neighbor_blocks_present(resources):
    # center "cat" with left "the": the left-neighbor block must carry the
    # "the" tag-dictionary bits while a missing right neighbor stays zero
    v = extended_features(["the", "cat"], 1, resources)
    block = resources.word_block_width()
    left = v[block:2 * block]
    right = v[2 * block:3 * block]
    assert left.sum() > 0
    assert np.array_equal(right, np.zeros(block))


def test_extended_position_out_of_range(resources):
    with pytest.raises(ValueError):
        extended_features(["a"], 3, resources)


# ---------------------------------------------------------------------------
# Resource IO
# ---------------------------------------------------------------------------


def test_ngram_index_build_and_round_trip(tmp_path):
    sentences = [["the", "the", "that"], ["other", "there"]]
    index = build_char_ngram_index(sentences, min_count=3)
    # "th" appears in the(2) + that + other + there = 5 times; "he" 4 times
    assert "th" in index and "he" in index
    assert "xz" not in index
    slots = sorted(index.values())
    assert slots == list(range(len(slots)))
    path = tmp_path / "ngrams.tsv"
    save_char_ngram_index(index, path)
    assert load_char_ngram_index(str(path)) == index


def test_brown_and_tagdict_and_names_io(tmp_path):
    brown = tmp_path / "brown.tsv"
    brown.write_text("0010\tthe\t100\n1101\tcat\t30\n", encoding="utf-8")
    assert load_brown_clusters(str(brown)) == {"the": "0010", "cat": "1101"}
    tags = tmp_path / "dict.tsv"
    tags.write_text("the\tDT\t90\nthe\tNN\t2\ncat\tNN\t50\n", encoding="utf-8")
    assert load_tag_dictionary(str(tags)) == {"the": {"DT": 90, "NN": 2},
                                              "cat": {"NN": 50}}
    names = tmp_path / "names.txt"
    names.write_text("alice\nbob\n", encoding="utf-8")
    assert load_name_list(str(names)) == {"alice", "bob"}


def test_brown_bad_line(tmp_path):
    brown = tmp_path / "brown.tsv"
    brown.write_text("0010 the 100\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_brown_clusters(str(brown))


def test_brown_duplicate_word_names_both_lines(tmp_path):
    brown = tmp_path / "brown.tsv"
    brown.write_text("0101\tword\t3\n\n0110\tword\t5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{brown}:3: duplicate word 'word' "
                                         r"\(first at line 1\)$"):
        load_brown_clusters(str(brown))


def test_ngram_slots_must_be_dense():
    with pytest.raises(ValueError):
        ResourceBundle(char_ngrams={"th": 0, "he": 2})
