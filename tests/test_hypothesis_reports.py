"""A failing hypothesis test reports its falsifying example when
warnings are errors, as they are in this suite and in CI."""


def test_a_failing_given_test_prints_its_falsifying_example(pytester):
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    out = result.stdout.str()
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    result.assert_outcomes(failed=1)
