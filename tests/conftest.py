"""Settings shared by every test module."""

from hypothesis import settings

# property tests build weight tables, whose cold quadrature outlasts any
# fixed per-example deadline; a failing example prints its reproducer
settings.register_profile("nlphase", deadline=None, print_blob=True)
settings.load_profile("nlphase")
