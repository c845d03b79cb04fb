"""Known-blocking-API database.

Offline detectors (PerfChecker and kin) search app code for calls to a
curated list of APIs known to block.  The list is the community's
accumulated expert knowledge; Hang Doctor's closing contribution is to
grow it automatically: every previously-unknown blocking *API* it
diagnoses at runtime is added, so that offline tools can warn every
other developer before release.  Self-developed operations are
reported to their app's developer but never added (they are not APIs).
"""

from repro.apps.android_apis import initial_blocking_names


class BlockingApiDatabase:
    """A mutable set of qualified blocking-API names."""

    def __init__(self, names=None):
        self._names = set(names) if names is not None else set()
        self._added_at_runtime = []
        #: True when this database was rebuilt from the shipped initial
        #: list because the persisted copy was corrupt.
        self.recovered_from_corruption = False

    @classmethod
    def initial(cls):
        """The database as shipped before Hang Doctor ever runs."""
        return cls(initial_blocking_names())

    def knows(self, qualified_name):
        """True if the API is already known as blocking."""
        return qualified_name in self._names

    def add(self, qualified_name):
        """Record a newly discovered blocking API.

        Returns True if the name was new (and notes it as a runtime
        discovery), False if it was already known.
        """
        if qualified_name in self._names:
            return False
        self._names.add(qualified_name)
        self._added_at_runtime.append(qualified_name)
        return True

    def runtime_discoveries(self):
        """Qualified names added at runtime, in discovery order."""
        return list(self._added_at_runtime)

    def names(self):
        """All known blocking-API names (a set copy)."""
        return set(self._names)

    def sorted_names(self):
        """All known names in the database's canonical (sorted) order.

        This is the iteration/serialization order: crowd publishing and
        local saves both emit it, so two databases with equal contents
        always serialize byte-identically regardless of insertion
        history.
        """
        return sorted(self._names)

    def __iter__(self):
        """Iterate names in canonical (sorted) order."""
        return iter(self.sorted_names())

    def __len__(self):
        return len(self._names)

    def __contains__(self, qualified_name):
        return qualified_name in self._names
