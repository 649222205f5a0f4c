"""Emergency generator startup: the standard stimulus of ``data/edg.nl``."""

from __future__ import annotations

# Input assignment under which every start permissive is satisfied; the
# standard stimulus of the bundled scenarios.
START_PERMITTED = {
    "fuel_press_ok": 1,
    "lube_press_ok": 1,
    "coolant_ok": 1,
    "air_press_ok": 1,
    "maint_mode": 0,
    "lockout_tripped": 0,
    "estop": 0,
    "overspeed": 0,
    "start_manual": 1,
    "start_auto": 0,
    "battery_ok": 1,
    "crank_relay_ok": 1,
    "field_flash_ok": 1,
    "breaker_open": 1,
}
