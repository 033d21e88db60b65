from hypothesis import settings

# Property tests draw the same examples on every run and carry no
# per-example deadline, so a loaded host can neither change which cases
# run nor fail one for being slow.  Per-test @settings still set the
# example counts.
settings.register_profile("colwave", derandomize=True, deadline=None)
settings.load_profile("colwave")
