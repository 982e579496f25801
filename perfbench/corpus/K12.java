import java.time.Duration;
import java.time.LocalDate;
import java.time.ZoneId;
import java.time.ZonedDateTime;
import java.time.format.DateTimeFormatter;
import java.time.temporal.ChronoUnit;

class K12 {
    LocalDate today() {
        return LocalDate.now();
    }

    ZonedDateTime zoned() {
        return ZonedDateTime.now(ZoneId.of("UTC"));
    }

    DateTimeFormatter formatter() {
        return DateTimeFormatter.ISO_DATE;
    }

    long age(LocalDate a, LocalDate b) {
        Duration d = Duration.ZERO;
        return ChronoUnit.DAYS.between(a, b) + d.toDays();
    }
}
