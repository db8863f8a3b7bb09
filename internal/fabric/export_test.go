package fabric

// RaceEnabled lets the external tests skip an allocation count the race
// detector's instrumentation would defeat.
const RaceEnabled = raceEnabled
