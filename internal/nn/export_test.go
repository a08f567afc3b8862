package nn

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled
