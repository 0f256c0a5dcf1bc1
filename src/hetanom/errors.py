"""The package's three exception types, one per thing a caller does about it.

Every error is a :class:`HetanomError`. Raised as itself it means the run
failed: a non-finite value, a dead worker, or a broken precondition or
invariant of a library call. The CLI exits 1 for it and for a
:class:`ReplayError`, and 2 for a :class:`ConfigurationError`."""


class HetanomError(Exception):
    """The run failed; the message names the stage and the value at fault."""


class ConfigurationError(HetanomError, ValueError):
    """Input the user must fix: a config field, or a config, spec, manifest,
    csv or checkpoint file the package refuses. The message starts with the
    field's path, the file's role or the file's path."""


class ReplayError(HetanomError):
    """A replay did not reproduce its record: the results checksum or the
    dataset bytes differ from the manifest's."""
