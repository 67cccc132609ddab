import pytest

from repro.kernel.errors import _MESSAGES, Errno, GuestCrash, SyscallError, strerror


def _enum_strerror(errno):
    """strerror as it was written before the int-keyed table: through an
    Errno enum built per call (the oracle for the table)."""
    try:
        return _MESSAGES[Errno(errno)]
    except ValueError:
        return "Unknown error %d" % errno


class TestErrno:
    def test_values_match_linux(self):
        assert Errno.ENOENT == 2
        assert Errno.EAGAIN == 11
        assert Errno.EEXIST == 17
        assert Errno.EPIPE == 32
        assert Errno.ENOSYS == 38

    def test_strerror_known(self):
        assert strerror(Errno.ENOENT) == "No such file or directory"
        assert strerror(Errno.EPIPE) == "Broken pipe"

    def test_strerror_unknown(self):
        assert "9999" in strerror(9999)

    @pytest.mark.parametrize("errno", list(Errno) + [9999])
    def test_strerror_matches_the_enum_lookup(self, errno):
        for value in (errno, int(errno)):
            assert strerror(value) == _enum_strerror(value)
            err = SyscallError(value, "open", "/x")
            assert str(err) == "open: %s (/x)" % _enum_strerror(value)
            assert err.args == ("open: %s (/x)" % _enum_strerror(value),)


class TestSyscallError:
    def test_carries_errno_and_syscall(self):
        err = SyscallError(Errno.ENOENT, "open", "/missing")
        assert err.errno == 2
        assert err.syscall == "open"
        assert "/missing" in str(err)
        assert "No such file" in str(err)

    def test_errno_is_plain_int(self):
        err = SyscallError(2, "open")
        assert err.errno == Errno.ENOENT


class TestGuestCrash:
    def test_message_includes_signal(self):
        crash = GuestCrash(11, "bad pointer")
        assert crash.signum == 11
        assert "11" in str(crash)
        assert "bad pointer" in str(crash)
