from frobjet.words import word_from_string, word_to_string, words_up_to


class TestWordsUpTo:
    def test_n2_r1(self):
        assert words_up_to(2, 1) == [(), (1,), (2,)]

    def test_n2_r2_size(self):
        assert len(words_up_to(2, 2)) == 1 + 2 + 4

    def test_n3_r3_size_geometric_oracle(self):
        assert len(words_up_to(3, 3)) == sum(3 ** k for k in range(4)) == 40

    def test_ordering_by_length_then_lex(self):
        ws = words_up_to(2, 2)
        assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_string_roundtrip(self):
        for w in words_up_to(3, 2):
            assert word_from_string(word_to_string(w)) == w
