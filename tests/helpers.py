"""Shared test helpers."""


def run_until(engine, app, action_name, predicate, attempts=60):
    """Run an action until *predicate(execution)* holds."""
    action = app.action(action_name)
    for _ in range(attempts):
        execution = engine.run_action(app, action)
        if predicate(execution):
            return execution
    raise AssertionError(
        f"no execution of {app.name}/{action_name} satisfied the predicate "
        f"in {attempts} attempts"
    )


def torn_forms(record):
    """Every way a crash mid-append can leave one framed log *record*
    behind: each proper prefix, bare and followed by a newline."""
    for cut in range(1, len(record)):
        yield record[:cut]
        if cut < len(record) - 1:
            yield record[:cut] + b"\n"
