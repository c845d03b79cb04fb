"""User-session generation.

The paper deployed the tested apps to 20 users for 60 days.  A
:class:`SessionGenerator` reproduces that scale (or a scaled-down
version for benches): per user and day, a sequence of action names
drawn with per-action popularity weights, so frequent actions hit
their Normal-state reset period and occasional bugs get many chances
to manifest.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.base.rng import stream


@dataclass(frozen=True)
class UserSession:
    """One user's action trace for one app."""

    app_name: str
    user_id: int
    action_names: Tuple[str, ...]

    def __len__(self):
        return len(self.action_names)


class SessionGenerator:
    """Draws weighted action sequences for an app's user base."""

    def __init__(self, seed=0):
        self.seed = seed

    def action_weights(self, app):
        """Per-action popularity weights (stable per app)."""
        rng = stream(self.seed, "weights", app.name)
        weights = rng.lognormal(mean=0.0, sigma=0.6, size=len(app.actions))
        return weights / weights.sum()

    def user_session(self, app, user_id, actions_per_user=60):
        """One user's trace: *actions_per_user* weighted draws."""
        rng = stream(self.seed, "session", app.name, user_id)
        weights = self.action_weights(app)
        names = [action.name for action in app.actions]
        indices = rng.choice(len(names), size=actions_per_user, p=weights)
        return UserSession(
            app_name=app.name,
            user_id=user_id,
            action_names=tuple(names[i] for i in indices),
        )

    def fleet_sessions(self, app, users=20, actions_per_user=60):
        """Sessions for a whole user base."""
        return [
            self.user_session(app, user_id, actions_per_user)
            for user_id in range(users)
        ]
